package nn

// ScratchLevel exposes the outputs of level l that the last ForwardModel
// on sc left in its buffers.
func ScratchLevel(sc *Scratch, l int) []float64 { return sc.outs[l-1] }
