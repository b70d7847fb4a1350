package fabric

// StagedFrames returns the frames staged in sb so far. Their Words alias
// the staging arena, so a test can read a frame, or change a payload word
// in place before the round delivers it. A fan frame reads back as one
// frame per destination, all sharing its payload.
func StagedFrames(sb *SendBuf) []Msg { return sb.messages() }

// messages reads the staged frames back as Msgs, in staging order, a fan
// frame expanded in destination order (From is left zero: the arena does
// not know its sender).
func (sb *SendBuf) messages() []Msg {
	if len(sb.buf) == 0 {
		return nil
	}
	out := make([]Msg, 0, (sb.staged()-int(sb.words))/frameHeader)
	for i := 0; i < len(sb.buf); {
		to, fan, end, next := frameAt(sb.buf, i)
		payload := sb.buf[i+frameHeader : end]
		if fan == nil {
			out = append(out, Msg{To: to, Words: payload})
		}
		for _, t := range fan {
			out = append(out, Msg{To: int(t), Words: payload})
		}
		i = next
	}
	return out
}
