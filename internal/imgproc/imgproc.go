// Package imgproc implements the image operations FFS-VA's filters are
// built from: resizing, frame-difference metrics (MSE / NRMSE / SAD),
// binarization, connected components, and small utility transforms. All
// operations work on 8-bit grayscale images, which is the only channel
// the paper's filters consume.
package imgproc

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ffsva/internal/frame"
	"ffsva/internal/par"
)

// Gray is an 8-bit grayscale image in row-major order.
type Gray struct {
	W, H int
	Pix  []uint8
	// pooled marks Pix as borrowed from the image pool; Release returns
	// it there.
	pooled bool
}

// NewGray allocates a zeroed grayscale image.
func NewGray(w, h int) *Gray {
	return &Gray{W: w, H: h, Pix: make([]uint8, w*h)}
}

// grayPix recycles pixel planes across pooled Gray images. The filters
// resize every frame to the same few shapes (100×100 for SDD, 50×50 for
// SNM, 208×208 for T-YOLO), so exact-length buckets make the steady
// state allocation-free.
var grayPix par.SlicePool[uint8]

// GetGray returns a pooled w×h image whose pixels are NOT cleared; it is
// for kernels that overwrite every pixel (resize targets, diff outputs).
// Release it with Gray.Release when done.
func GetGray(w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic("imgproc: GetGray: non-positive size")
	}
	return &Gray{W: w, H: h, Pix: grayPix.Get(w * h), pooled: true}
}

// Release returns a pooled image's pixel plane for reuse. It is a no-op
// on images not obtained from the pool (NewGray allocations, FromFrame
// views), so callers can release unconditionally. After Release the
// image must not be used.
func (g *Gray) Release() {
	if g == nil || !g.pooled || g.Pix == nil {
		return
	}
	grayPix.Put(g.Pix)
	g.Pix = nil
	g.pooled = false
}

// FromFrame wraps a frame's pixel buffer as a Gray without copying.
func FromFrame(f *frame.Frame) *Gray {
	return &Gray{W: f.W, H: f.H, Pix: f.Pix}
}

// At returns the pixel at (x, y).
func (g *Gray) At(x, y int) uint8 { return g.Pix[y*g.W+x] }

// Set writes the pixel at (x, y).
func (g *Gray) Set(x, y int, v uint8) { g.Pix[y*g.W+x] = v }

// Clone returns a deep copy.
func (g *Gray) Clone() *Gray {
	out := NewGray(g.W, g.H)
	copy(out.Pix, g.Pix)
	return out
}

// sameSize panics unless a and b have identical dimensions; distance
// metrics are only defined on equal-size images.
func sameSize(op string, a, b *Gray) {
	if a.W != b.W || a.H != b.H {
		panic(fmt.Sprintf("imgproc: %s: size mismatch %dx%d vs %dx%d", op, a.W, a.H, b.W, b.H))
	}
}

// Resize scales src into a new w×h image using bilinear interpolation.
// This is the resize step the paper charges 40/150/400 µs for ahead of
// SDD/SNM/T-YOLO respectively.
func Resize(src *Gray, w, h int) *Gray {
	dst := NewGray(w, h)
	ResizeInto(src, dst)
	return dst
}

// colTap is the horizontal half of one bilinear output column: the two
// source columns it blends and their weights.
type colTap struct {
	x0, x1 int
	w0, w1 float64 // 1-fx and fx
}

// tapCache holds the column taps of every (src.W, dst.W) shape seen so
// far, keyed srcW<<32|dstW. The filters resize to a handful of shapes,
// so the map is copied on the rare miss and read lock-free otherwise.
var (
	tapCache atomic.Pointer[map[uint64][]colTap]
	tapMu    sync.Mutex
)

// colTaps returns the column taps of a srcW→dstW resize. They depend
// only on the two widths, so every row of every resize of that shape
// shares one table instead of recomputing the same taps per pixel.
func colTaps(srcW, dstW int) []colTap {
	key := uint64(srcW)<<32 | uint64(dstW)
	if m := tapCache.Load(); m != nil {
		if t, ok := (*m)[key]; ok {
			return t
		}
	}
	taps := make([]colTap, dstW)
	xRatio := float64(srcW) / float64(dstW)
	for x := range taps {
		sx := (float64(x)+0.5)*xRatio - 0.5
		x0 := int(math.Floor(sx))
		fx := sx - float64(x0)
		x1 := x0 + 1
		if x0 < 0 {
			x0, x1, fx = 0, 0, 0
		}
		if x1 >= srcW {
			x1 = srcW - 1
			if x0 > x1 {
				x0 = x1
			}
		}
		taps[x] = colTap{x0: x0, x1: x1, w0: 1 - fx, w1: fx}
	}
	tapMu.Lock()
	defer tapMu.Unlock()
	next := map[uint64][]colTap{key: taps}
	if m := tapCache.Load(); m != nil {
		for k, v := range *m {
			next[k] = v
		}
	}
	tapCache.Store(&next)
	return taps
}

// resizeRow writes one bilinear output row y of the src→(len(taps),·)
// resize into dst (length len(taps)). Both ResizeInto and the fused
// ResizeMSE build on it, so the two paths compute identical pixels by
// construction.
func resizeRow(src *Gray, taps []colTap, y int, yRatio float64, dst []uint8) {
	sy := (float64(y)+0.5)*yRatio - 0.5
	y0 := int(math.Floor(sy))
	fy := sy - float64(y0)
	y1 := y0 + 1
	if y0 < 0 {
		y0, y1, fy = 0, 0, 0
	}
	if y1 >= src.H {
		y1 = src.H - 1
		if y0 > y1 {
			y0 = y1
		}
	}
	row0 := src.Pix[y0*src.W : (y0+1)*src.W]
	row1 := src.Pix[y1*src.W : (y1+1)*src.W]
	dst = dst[:len(taps)]
	for x, t := range taps {
		top := float64(row0[t.x0])*t.w0 + float64(row0[t.x1])*t.w1
		bot := float64(row1[t.x0])*t.w0 + float64(row1[t.x1])*t.w1
		v := top*(1-fy) + bot*fy
		dst[x] = uint8(math.Round(clamp(v, 0, 255)))
	}
}

// ResizeInto scales src into dst (sized by dst.W×dst.H), overwriting
// every pixel, so dst may be a dirty pooled image. Output rows are
// independent and shard over the worker pool; each row is written by
// exactly one shard, so the result is bitwise-identical to the serial
// loop.
func ResizeInto(src, dst *Gray) {
	w, h := dst.W, dst.H
	if w <= 0 || h <= 0 {
		panic("imgproc: Resize: non-positive target size")
	}
	if src.W == w && src.H == h {
		copy(dst.Pix, src.Pix)
		return
	}
	taps := colTaps(src.W, w)
	yRatio := float64(src.H) / float64(h)
	par.For(h, 8, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			resizeRow(src, taps, y, yRatio, dst.Pix[y*w:(y+1)*w])
		}
	})
}

// resizeMSERows is the fixed row chunk of the fused resize+score
// reduction; boundaries depend only on the output height, so the
// partial-combination order is machine-independent.
const resizeMSERows = 8

// ResizeMSE scales src into dst exactly as ResizeInto does and, in the
// same pass, returns the mean squared error between the fresh dst and
// ref — the per-frame work of the SDD stage fused into one sweep, so
// each output row is scored while still hot in cache instead of being
// re-read by a second kernel. dst and ref must both be dst.W×dst.H.
// Row-chunk difference sums are exact integers combined in chunk order,
// so the result is bitwise-identical to ResizeInto followed by MSE, for
// any worker count.
func ResizeMSE(src, dst, ref *Gray) float64 {
	sameSize("ResizeMSE", dst, ref)
	w, h := dst.W, dst.H
	if w <= 0 || h <= 0 {
		panic("imgproc: ResizeMSE: non-positive target size")
	}
	if src.W == w && src.H == h {
		copy(dst.Pix, src.Pix)
		return MSE(dst, ref)
	}
	taps := colTaps(src.W, w)
	yRatio := float64(src.H) / float64(h)
	partials := make([]uint64, par.NumChunks(h, resizeMSERows))
	par.ForChunks(h, resizeMSERows, func(ci, lo, hi int) {
		var sum uint64
		for y := lo; y < hi; y++ {
			row := dst.Pix[y*w : (y+1)*w]
			resizeRow(src, taps, y, yRatio, row)
			refRow := ref.Pix[y*w : (y+1)*w]
			for x, v := range row {
				d := int(v) - int(refRow[x])
				sum += uint64(d * d)
			}
		}
		partials[ci] = sum
	})
	var sum uint64
	for _, p := range partials {
		sum += p
	}
	return float64(sum) / float64(len(dst.Pix))
}

// ResizeNearest scales src into a new w×h image with nearest-neighbor
// sampling; cheaper and used where interpolation quality is irrelevant.
func ResizeNearest(src *Gray, w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic("imgproc: ResizeNearest: non-positive target size")
	}
	dst := NewGray(w, h)
	for y := 0; y < h; y++ {
		sy := y * src.H / h
		for x := 0; x < w; x++ {
			sx := x * src.W / w
			dst.Pix[y*w+x] = src.Pix[sy*src.W+sx]
		}
	}
	return dst
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// mseChunk is the fixed reduction chunk for the pixel-difference
// metrics. Per-chunk sums are exact integers (every squared 8-bit diff
// is ≤ 255², far below 2⁵³), so combining chunk partials yields the
// same value as the serial sum, bitwise, for any worker count.
const mseChunk = 1 << 14

// MSE returns the mean squared pixel error between two equal-size images.
// It is SDD's default distance metric (paper §3.2.1). The reduction runs
// over the worker pool in fixed chunks; because every partial is an
// exact integer, the result is bitwise-identical to the serial loop.
func MSE(a, b *Gray) float64 {
	sameSize("MSE", a, b)
	n := len(a.Pix)
	partials := make([]uint64, par.NumChunks(n, mseChunk))
	par.ForChunks(n, mseChunk, func(ci, lo, hi int) {
		var sum uint64
		for i := lo; i < hi; i++ {
			d := int(a.Pix[i]) - int(b.Pix[i])
			sum += uint64(d * d)
		}
		partials[ci] = sum
	})
	var sum uint64
	for _, p := range partials {
		sum += p
	}
	return float64(sum) / float64(n)
}

// NRMSE returns the root of MSE normalized by the 8-bit dynamic range, in
// [0, 1].
func NRMSE(a, b *Gray) float64 {
	return math.Sqrt(MSE(a, b)) / 255.0
}

// SAD returns the sum of absolute differences between two equal-size
// images. Like MSE, the chunked integer reduction is exact.
func SAD(a, b *Gray) float64 {
	sameSize("SAD", a, b)
	n := len(a.Pix)
	partials := make([]uint64, par.NumChunks(n, mseChunk))
	par.ForChunks(n, mseChunk, func(ci, lo, hi int) {
		var sum uint64
		for i := lo; i < hi; i++ {
			d := int(a.Pix[i]) - int(b.Pix[i])
			if d < 0 {
				d = -d
			}
			sum += uint64(d)
		}
		partials[ci] = sum
	})
	var sum uint64
	for _, p := range partials {
		sum += p
	}
	return float64(sum)
}

// AbsDiff writes |a−b| per pixel into a new image.
func AbsDiff(a, b *Gray) *Gray {
	sameSize("AbsDiff", a, b)
	out := NewGray(a.W, a.H)
	AbsDiffInto(a, b, out)
	return out
}

// AbsDiffInto writes |a−b| per pixel into out, overwriting every pixel,
// so out may be a dirty pooled image.
func AbsDiffInto(a, b, out *Gray) {
	sameSize("AbsDiff", a, b)
	sameSize("AbsDiff", a, out)
	par.For(len(a.Pix), 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d := int(a.Pix[i]) - int(b.Pix[i])
			if d < 0 {
				d = -d
			}
			out.Pix[i] = uint8(d)
		}
	})
}

// MeanStd returns the mean and standard deviation of the image pixels.
func MeanStd(g *Gray) (mean, std float64) {
	if len(g.Pix) == 0 {
		return 0, 0
	}
	var sum float64
	for _, p := range g.Pix {
		sum += float64(p)
	}
	mean = sum / float64(len(g.Pix))
	var sq float64
	for _, p := range g.Pix {
		d := float64(p) - mean
		sq += d * d
	}
	std = math.Sqrt(sq / float64(len(g.Pix)))
	return mean, std
}

// Binarize returns a mask with 1 where g exceeds thresh and 0 elsewhere.
func Binarize(g *Gray, thresh uint8) *Gray {
	out := NewGray(g.W, g.H)
	BinarizeInto(g, thresh, out)
	return out
}

// BinarizeInto writes the threshold mask into out, overwriting every
// pixel, so out may be a dirty pooled image.
func BinarizeInto(g *Gray, thresh uint8, out *Gray) {
	sameSize("Binarize", g, out)
	par.For(len(g.Pix), 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if g.Pix[i] > thresh {
				out.Pix[i] = 1
			} else {
				out.Pix[i] = 0
			}
		}
	})
}

// BoxBlur3 applies a 3×3 box filter, used to suppress sensor noise before
// binarization in the grid detector.
func BoxBlur3(g *Gray) *Gray {
	out := NewGray(g.W, g.H)
	BoxBlur3Into(g, out)
	return out
}

// BoxBlur3Into writes the 3×3 box filter of g into out, overwriting
// every pixel, so out may be a dirty pooled image. Output rows shard
// over the worker pool; the input is read-only, so shards are
// independent.
func BoxBlur3Into(g, out *Gray) {
	sameSize("BoxBlur3", g, out)
	par.For(g.H, 8, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			for x := 0; x < g.W; x++ {
				var sum, n int
				for dy := -1; dy <= 1; dy++ {
					yy := y + dy
					if yy < 0 || yy >= g.H {
						continue
					}
					for dx := -1; dx <= 1; dx++ {
						xx := x + dx
						if xx < 0 || xx >= g.W {
							continue
						}
						sum += int(g.Pix[yy*g.W+xx])
						n++
					}
				}
				out.Pix[y*g.W+x] = uint8(sum / n)
			}
		}
	})
}

// Rect is an axis-aligned rectangle in pixel coordinates.
type Rect struct {
	X, Y, W, H int
}

// Area returns the rectangle's area in pixels.
func (r Rect) Area() int { return r.W * r.H }

// IoU returns the intersection-over-union of two rectangles in [0, 1].
func IoU(a, b Rect) float64 {
	ix := max(a.X, b.X)
	iy := max(a.Y, b.Y)
	ix2 := min(a.X+a.W, b.X+b.W)
	iy2 := min(a.Y+a.H, b.Y+b.H)
	iw := ix2 - ix
	ih := iy2 - iy
	if iw <= 0 || ih <= 0 {
		return 0
	}
	inter := iw * ih
	union := a.Area() + b.Area() - inter
	if union <= 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// ConnectedComponents labels 4-connected regions of non-zero pixels in
// mask and returns the bounding box and pixel count of each region with at
// least minArea pixels. Regions are returned in scan order of their first
// pixel, so output is deterministic.
func ConnectedComponents(mask *Gray, minArea int) []Component {
	visited := make([]bool, len(mask.Pix))
	var comps []Component
	var stack []int
	for start, p := range mask.Pix {
		if p == 0 || visited[start] {
			continue
		}
		minX, minY := mask.W, mask.H
		maxX, maxY := -1, -1
		count := 0
		stack = stack[:0]
		stack = append(stack, start)
		visited[start] = true
		for len(stack) > 0 {
			idx := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := idx%mask.W, idx/mask.W
			count++
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
			// 4-connectivity.
			if x > 0 {
				push(mask, visited, &stack, idx-1)
			}
			if x < mask.W-1 {
				push(mask, visited, &stack, idx+1)
			}
			if y > 0 {
				push(mask, visited, &stack, idx-mask.W)
			}
			if y < mask.H-1 {
				push(mask, visited, &stack, idx+mask.W)
			}
		}
		if count >= minArea {
			comps = append(comps, Component{
				Rect:   Rect{X: minX, Y: minY, W: maxX - minX + 1, H: maxY - minY + 1},
				Pixels: count,
			})
		}
	}
	return comps
}

func push(mask *Gray, visited []bool, stack *[]int, idx int) {
	if mask.Pix[idx] != 0 && !visited[idx] {
		visited[idx] = true
		*stack = append(*stack, idx)
	}
}

// Component is one connected foreground region.
type Component struct {
	Rect   Rect
	Pixels int // number of foreground pixels (≤ Rect.Area())
}

// Integral computes the summed-area table of g. The returned slice has
// (W+1)×(H+1) entries; use BoxSum to query region sums in O(1).
func Integral(g *Gray) []uint64 {
	w1 := g.W + 1
	tab := make([]uint64, w1*(g.H+1))
	for y := 1; y <= g.H; y++ {
		var rowSum uint64
		for x := 1; x <= g.W; x++ {
			rowSum += uint64(g.Pix[(y-1)*g.W+(x-1)])
			tab[y*w1+x] = tab[(y-1)*w1+x] + rowSum
		}
	}
	return tab
}

// BoxSum returns the sum of pixels of g inside r, using the integral table
// produced by Integral. The rectangle is clipped to the image bounds.
func BoxSum(g *Gray, tab []uint64, r Rect) uint64 {
	x0, y0 := max(r.X, 0), max(r.Y, 0)
	x1, y1 := min(r.X+r.W, g.W), min(r.Y+r.H, g.H)
	if x0 >= x1 || y0 >= y1 {
		return 0
	}
	w1 := g.W + 1
	return tab[y1*w1+x1] - tab[y0*w1+x1] - tab[y1*w1+x0] + tab[y0*w1+x0]
}
