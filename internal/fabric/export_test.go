package fabric

// StagedFrames returns the frames staged in sb so far. Their Words alias
// the staging arena, so a test can read a frame, or change a payload word
// in place before the round delivers it.
func StagedFrames(sb *SendBuf) []Msg { return sb.messages() }
