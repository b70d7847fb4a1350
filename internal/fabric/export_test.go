package fabric

// StagedFrames returns the frames staged in sb so far. Their Words alias
// the staging arena, so a test can read a frame, or change a payload word
// in place before the round delivers it.
func StagedFrames(sb *SendBuf) []Msg { return sb.messages() }

// messages reads the staged frames back as Msgs, in staging order (From
// is left zero: the arena does not know its sender).
func (sb *SendBuf) messages() []Msg {
	if sb.nmsg == 0 {
		return nil
	}
	out := make([]Msg, 0, sb.nmsg)
	for i := 0; i < len(sb.buf); {
		to, nw := unpackHeader(sb.buf[i])
		out = append(out, Msg{To: to, Words: sb.buf[i+frameHeader : i+frameHeader+nw]})
		i += frameHeader + nw
	}
	return out
}
