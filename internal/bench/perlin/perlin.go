// Package perlin implements the Perlin Noise benchmark (Table I: "noise
// generation to improve realism in motion pictures", 65536 pixels, block
// 2048): classic 2-D gradient noise with several octaves, evaluated frame by
// frame (the time axis animates the noise), one task per pixel block per
// frame. It is one of the paper's fine-grained/high-task-count workloads.
package perlin

import (
	"fmt"
	"math"

	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/cluster"
	"appfit/internal/rt"
)

// Params sizes the workload.
type Params struct {
	// Pixels is the total pixel count (the image is Pixels wide, 1 row
	// per frame with the frame index as the y/time axis).
	Pixels int
	// B is the pixels per block.
	B int
	// Frames is the number of animation frames.
	Frames int
	// Octaves is the number of noise octaves summed per pixel.
	Octaves int
}

// ParamsFor returns parameters at a scale; Medium reaches the paper's
// 25K-48K task band (64 blocks × 400 frames = 25.6K tasks).
func ParamsFor(s workload.Scale) Params {
	switch s {
	case workload.Tiny:
		return Params{Pixels: 512, B: 128, Frames: 3, Octaves: 3}
	case workload.Medium:
		return Params{Pixels: 131072, B: 2048, Frames: 400, Octaves: 4}
	default:
		return Params{Pixels: 65536, B: 2048, Frames: 100, Octaves: 4}
	}
}

// Tasks returns the task count.
func (p Params) Tasks() int { return p.Pixels / p.B * p.Frames }

// permutation is Ken Perlin's reference permutation table.
var permutation = [256]uint8{
	151, 160, 137, 91, 90, 15, 131, 13, 201, 95, 96, 53, 194, 233, 7, 225,
	140, 36, 103, 30, 69, 142, 8, 99, 37, 240, 21, 10, 23, 190, 6, 148,
	247, 120, 234, 75, 0, 26, 197, 62, 94, 252, 219, 203, 117, 35, 11, 32,
	57, 177, 33, 88, 237, 149, 56, 87, 174, 20, 125, 136, 171, 168, 68, 175,
	74, 165, 71, 134, 139, 48, 27, 166, 77, 146, 158, 231, 83, 111, 229, 122,
	60, 211, 133, 230, 220, 105, 92, 41, 55, 46, 245, 40, 244, 102, 143, 54,
	65, 25, 63, 161, 1, 216, 80, 73, 209, 76, 132, 187, 208, 89, 18, 169,
	200, 196, 135, 130, 116, 188, 159, 86, 164, 100, 109, 198, 173, 186, 3, 64,
	52, 217, 226, 250, 124, 123, 5, 202, 38, 147, 118, 126, 255, 82, 85, 212,
	207, 206, 59, 227, 47, 16, 58, 17, 182, 189, 28, 42, 223, 183, 170, 213,
	119, 248, 152, 2, 44, 154, 163, 70, 221, 153, 101, 155, 167, 43, 172, 9,
	129, 22, 39, 253, 19, 98, 108, 110, 79, 113, 224, 232, 178, 185, 112, 104,
	218, 246, 97, 228, 251, 34, 242, 193, 238, 210, 144, 12, 191, 179, 162, 241,
	81, 51, 145, 235, 249, 14, 239, 107, 49, 192, 214, 31, 181, 199, 106, 157,
	184, 84, 204, 176, 115, 121, 50, 45, 127, 4, 150, 254, 138, 236, 205, 93,
	222, 114, 67, 29, 24, 72, 243, 141, 128, 195, 78, 66, 215, 61, 156, 180,
}

func perm(i int) int { return int(permutation[i&255]) }

func fade(t float64) float64 { return t * t * t * (t*(t*6-15) + 10) }

func lerp(t, a, b float64) float64 { return a + t*(b-a) }

func grad(hash int, x, y float64) float64 {
	switch hash & 3 {
	case 0:
		return x + y
	case 1:
		return -x + y
	case 2:
		return x - y
	default:
		return -x - y
	}
}

// Noise2 evaluates classic 2-D Perlin noise at (x, y), in [-1, 1].
func Noise2(x, y float64) float64 {
	xi, yi := int(math.Floor(x))&255, int(math.Floor(y))&255
	xf, yf := x-math.Floor(x), y-math.Floor(y)
	u, v := fade(xf), fade(yf)
	aa := perm(perm(xi) + yi)
	ab := perm(perm(xi) + yi + 1)
	ba := perm(perm(xi+1) + yi)
	bb := perm(perm(xi+1) + yi + 1)
	x1 := lerp(u, grad(aa, xf, yf), grad(ba, xf-1, yf))
	x2 := lerp(u, grad(ab, xf, yf-1), grad(bb, xf-1, yf-1))
	return lerp(v, x1, x2)
}

// Octaves sums o octaves of noise with persistence 0.5.
func Octaves(x, y float64, o int) float64 {
	sum, amp, freq, norm := 0.0, 1.0, 1.0, 0.0
	for i := 0; i < o; i++ {
		sum += amp * Noise2(x*freq, y*freq)
		norm += amp
		amp *= 0.5
		freq *= 2
	}
	return sum / norm
}

// RenderBlock fills dst with 8-bit noise for pixels [off, off+len(dst)) of
// the given frame. It is the task body shared by the runtime build and the
// serial reference.
func RenderBlock(dst []uint8, off, frame, octaves int) {
	const freq = 1.0 / 64
	y := float64(frame) * 0.37
	for i := range dst {
		n := Octaves(float64(off+i)*freq, y, octaves)
		dst[i] = uint8((n + 1) * 127.5)
	}
}

// W is the Perlin workload.
type W struct{}

// New returns the workload.
func New() workload.Workload { return W{} }

// Name implements workload.Workload.
func (W) Name() string { return "perlin" }

// Distributed implements workload.Workload.
func (W) Distributed() bool { return false }

// Description implements workload.Workload.
func (W) Description() string {
	return "Noise generation to improve realism in motion pictures"
}

// PaperSize implements workload.Workload.
func (W) PaperSize() string { return "Array of pixels with size of 65536, block size 2048" }

// InputBytes implements workload.Workload.
func (W) InputBytes(s workload.Scale) int64 { return int64(ParamsFor(s).Pixels) }

// graph states the animation's task graph: per frame, one task rendering
// each pixel block. Block i lives on node i mod nodes.
func graph(g *workload.Graph, p Params) {
	// ~40 flops per pixel per octave in the noise kernel.
	flops := int64(p.B) * int64(p.Octaves) * 40
	for f := 0; f < p.Frames; f++ {
		for i := 0; i < p.Pixels/p.B; i++ {
			var render rt.TaskFunc
			if g.Runs() {
				off, frame := i*p.B, f
				render = func(ctx *rt.Ctx) { RenderBlock(ctx.U8(0), off, frame, p.Octaves) }
			}
			g.Task("perlin", i%g.Nodes(), flops, int64(p.B), render,
				workload.WAcc(workload.Region{Arr: 'p', I: int32(i)}, int64(p.B)))
		}
	}
}

// BuildRT implements workload.Workload.
func (W) BuildRT(r *rt.Runtime, s workload.Scale) workload.Verifier {
	p := ParamsFor(s)
	nb := p.Pixels / p.B
	blocks := make([]buffer.U8, nb)
	for i := range blocks {
		blocks[i] = buffer.NewU8(p.B)
	}
	graph(workload.NewRTGraph(r, func(reg workload.Region) buffer.Buffer { return blocks[reg.I] }), p)
	return func() error {
		// The surviving state is the last frame; compare bitwise with a
		// serial re-render (noise is deterministic).
		want := make([]uint8, p.B)
		for i := 0; i < nb; i++ {
			RenderBlock(want, i*p.B, p.Frames-1, p.Octaves)
			for j := range want {
				if blocks[i][j] != want[j] {
					return fmt.Errorf("perlin: block %d pixel %d = %d, want %d",
						i, j, blocks[i][j], want[j])
				}
			}
		}
		return nil
	}
}

// BuildJob implements workload.Workload.
func (w W) BuildJob(s workload.Scale, nodes int, cm workload.CostModel) cluster.Job {
	p := ParamsFor(s)
	g := workload.NewJobGraph(w.Name(), p.Tasks(), nodes, cm)
	graph(g, p)
	return g.Job()
}
