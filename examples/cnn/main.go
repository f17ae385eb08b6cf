// CNN inference on PIM (§IV): runs a small convolution + ReLU + max-pool
// network bit-exactly on the PIM unit — multiplications through the
// carry-save multiplier, pooling through the transverse-read tournament —
// and then prints the Table IV throughput matrix for LeNet-5 and AlexNet
// across CORUSCANT, SPIM, Ambit, ELP²IM and ISAAC.
package main

import (
	"fmt"
	"log"

	coruscant "repro"
	"repro/internal/workloads/cnn"
)

func main() {
	// Part 1: bit-exact tiny CNN on the simulator.
	cfg := coruscant.DefaultConfig()
	cfg.Geometry.TrackWidth = 256
	u, err := coruscant.NewUnit(cfg)
	if err != nil {
		log.Fatal(err)
	}
	net := &cnn.Sequential{Layers: []cnn.PIMLayer{
		&cnn.ConvLayer{W: [][][3][3]int{{{
			{-1, -1, -1},
			{-1, 8, -1},
			{-1, -1, -1}, // edge-detection kernel
		}}}, B: []int{0}},
		cnn.PoolLayer{},
	}}
	img := cnn.Tensor3{{
		{0, 0, 0, 0, 0, 0},
		{0, 9, 9, 9, 9, 0},
		{0, 9, 0, 0, 9, 0},
		{0, 9, 0, 0, 9, 0},
		{0, 9, 9, 9, 9, 0},
		{0, 0, 0, 0, 0, 0},
	}}
	got, err := net.Forward(u, img)
	if err != nil {
		log.Fatal(err)
	}
	want := net.ForwardRef(img)
	fmt.Println("edge-detect conv + ReLU + 2x2 max-pool, computed in-memory:")
	match := true
	for y := range got[0] {
		fmt.Printf("  %v\n", got[0][y])
		for x := range got[0][y] {
			if got[0][y][x] != want[0][y][x] {
				match = false
			}
		}
	}
	fmt.Printf("matches integer reference: %v\n", match)
	fmt.Printf("device trace: %v\n\n", u.Stats())

	// Part 2: the Table IV throughput matrix.
	cells, err := cnn.Table4()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Table IV — CNN inference throughput (FPS):")
	fmt.Printf("  %-14s %-5s %-8s %10s\n", "backend", "mode", "network", "FPS")
	for _, c := range cells {
		fmt.Printf("  %-14s %-5s %-8s %10.1f\n", c.Backend, c.Precision, c.Network, c.FPS)
	}
}
