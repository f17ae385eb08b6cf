// Package cnn implements the CNN case study of §IV and the Table IV/VI
// evaluation: LeNet-5 and AlexNet inference mapped onto CORUSCANT
// (full-precision and ternary-weight modes), SPIM, Ambit, ELP²IM and
// ISAAC.
//
// Two levels exist side by side:
//
//   - a functional path (functional.go) that runs a small convolution +
//     pooling + ReLU network bit-exactly on the PIM unit, validating the
//     §IV mapping end to end;
//   - analytic throughput models (backends.go) producing the Table IV
//     frames-per-second matrix, with per-operation costs taken from the
//     measured PIM unit and the baseline models, and per-family
//     parallelism/staging constants calibrated on the anchor cells
//     documented there.
package cnn

// LayerKind distinguishes the three layer types of §IV.
type LayerKind int

// CNN layer kinds.
const (
	Conv LayerKind = iota
	Pool
	FC
)

func (k LayerKind) String() string {
	switch k {
	case Conv:
		return "conv"
	case Pool:
		return "pool"
	default:
		return "fc"
	}
}

// Layer describes one network layer.
type Layer struct {
	Kind LayerKind
	Name string

	InC, OutC  int // channels
	K          int // kernel size (conv/pool)
	OutH, OutW int // output spatial dims
	In, Out    int // fc dims
}

// Outputs returns the number of output values the layer produces.
func (l Layer) Outputs() int64 {
	if l.Kind == FC {
		return int64(l.Out)
	}
	return int64(l.OutC) * int64(l.OutH) * int64(l.OutW)
}

// MACs returns the multiply-accumulates of the layer.
func (l Layer) MACs() int64 {
	switch l.Kind {
	case Conv:
		return l.Outputs() * int64(l.K) * int64(l.K) * int64(l.InC)
	case FC:
		return int64(l.In) * int64(l.Out)
	default:
		return 0
	}
}

// ReductionFanIn returns m, the number of values summed per output
// (Eq. 2's (K²−1)·Ic + (Ic−1) additions come from reducing m = K²·Ic
// products).
func (l Layer) ReductionFanIn() int {
	switch l.Kind {
	case Conv:
		return l.K * l.K * l.InC
	case FC:
		return l.In
	default:
		return l.K * l.K // pooling compares K² candidates
	}
}

// Adds returns the Eq. 2 addition count of the layer: one output needs
// m−1 additions.
func (l Layer) Adds() int64 {
	if l.Kind == Pool {
		return 0
	}
	return l.Outputs() * int64(l.ReductionFanIn()-1)
}

// Network is a full model.
type Network struct {
	Name   string
	Layers []Layer
	// InputBytes is the input image size (activations staged per
	// inference).
	InputBytes int64
}

// MACs returns the network's total multiply-accumulates.
func (n Network) MACs() int64 {
	var t int64
	for _, l := range n.Layers {
		t += l.MACs()
	}
	return t
}

// Adds returns the network's total Eq. 2 additions.
func (n Network) Adds() int64 {
	var t int64
	for _, l := range n.Layers {
		t += l.Adds()
	}
	return t
}

// LeNet5 returns the LeNet-5 [55] layer table (MNIST, 28×28 input).
func LeNet5() Network {
	return Network{
		Name:       "Lenet5",
		InputBytes: 28 * 28,
		Layers: []Layer{
			{Kind: Conv, Name: "C1", InC: 1, OutC: 6, K: 5, OutH: 28, OutW: 28},
			{Kind: Pool, Name: "S2", InC: 6, OutC: 6, K: 2, OutH: 14, OutW: 14},
			{Kind: Conv, Name: "C3", InC: 6, OutC: 16, K: 5, OutH: 10, OutW: 10},
			{Kind: Pool, Name: "S4", InC: 16, OutC: 16, K: 2, OutH: 5, OutW: 5},
			{Kind: Conv, Name: "C5", InC: 16, OutC: 120, K: 5, OutH: 1, OutW: 1},
			{Kind: FC, Name: "F6", In: 120, Out: 84},
			{Kind: FC, Name: "OUT", In: 84, Out: 10},
		},
	}
}

// AlexNet returns the AlexNet [56] layer table (ImageNet, 227×227×3
// input, grouped convolutions as in the original).
func AlexNet() Network {
	return Network{
		Name:       "Alexnet",
		InputBytes: 227 * 227 * 3,
		Layers: []Layer{
			{Kind: Conv, Name: "conv1", InC: 3, OutC: 96, K: 11, OutH: 55, OutW: 55},
			{Kind: Pool, Name: "pool1", InC: 96, OutC: 96, K: 3, OutH: 27, OutW: 27},
			{Kind: Conv, Name: "conv2", InC: 48, OutC: 256, K: 5, OutH: 27, OutW: 27},
			{Kind: Pool, Name: "pool2", InC: 256, OutC: 256, K: 3, OutH: 13, OutW: 13},
			{Kind: Conv, Name: "conv3", InC: 256, OutC: 384, K: 3, OutH: 13, OutW: 13},
			{Kind: Conv, Name: "conv4", InC: 192, OutC: 384, K: 3, OutH: 13, OutW: 13},
			{Kind: Conv, Name: "conv5", InC: 192, OutC: 256, K: 3, OutH: 13, OutW: 13},
			{Kind: FC, Name: "fc6", In: 9216, Out: 4096},
			{Kind: FC, Name: "fc7", In: 4096, Out: 4096},
			{Kind: FC, Name: "fc8", In: 4096, Out: 1000},
		},
	}
}
