// Package par is the shared compute worker pool behind FFS-VA's hot
// kernels. The Conv2D/Dense/MaxPool2 forward passes, the imgproc resize
// and frame-difference kernels, and the TinyGrid detector all shard
// their output rows (or batch samples) over this one pool, so the
// process never oversubscribes the machine no matter how many pipeline
// stages compute at once.
//
// Design rules the kernels rely on:
//
//   - Determinism: a kernel parallelized with For writes disjoint output
//     regions per index, so its result is bitwise-identical to the
//     serial loop for any worker count. Reductions go through ForChunks,
//     whose chunk boundaries are a function of (n, chunk) alone — never
//     of the worker count — and whose partials the caller combines in
//     chunk order, fixing the reduction order.
//   - No deadlock under nesting: a kernel may call another kernel (e.g.
//     TinyGrid calls Resize). The submitting goroutine never waits on
//     pool capacity: it claims chunks from the job cursor itself, so
//     every loop completes even if no worker ever picks the job up.
//   - Clock neutrality: workers are plain goroutines that compute
//     synchronously on behalf of the caller. Virtual-clock processes may
//     call into the pool freely — the call returns only when the work is
//     done, so no simulated time passes inside a kernel.
//
// Dispatch model: each For/ForChunks call publishes one job — a chunk
// cursor over the index range — and pushes wake-up references into the
// pool's queue. Workers that pop a reference join the caller in claiming
// chunks from the cursor until none remain. Wake-ups are best-effort: a
// dropped or stale wake-up (queue full, pool resized mid-flight) costs
// parallelism for that one loop, never correctness, because the caller
// drains the cursor regardless. This is what makes SetWorkers safe to
// call at any time, including while kernels are running.
//
// Spawn reuses the same machinery for one asynchronous call: a
// one-chunk job whose wake-up is offered to an idle worker, collected
// by Task.Wait, which runs the call inline if no worker claimed it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// job is one parallel loop in flight. Executors — the submitting
// goroutine plus any pool workers woken for it — claim chunk indices
// from next until the range is exhausted. Chunk ci covers
// [ci*size, min(n, (ci+1)*size)).
type job struct {
	body      func(lo, hi int)     // For loops
	chunkBody func(ci, lo, hi int) // ForChunks loops (no per-chunk closure)
	n, size   int
	nchunks   int64
	next      atomic.Int64
	wg        sync.WaitGroup
}

// run claims and executes chunks until the cursor is exhausted. It is
// called by the submitting goroutine and by every worker that picks the
// job up; the atomic cursor makes each chunk run exactly once.
func (j *job) run() {
	for {
		ci := j.next.Add(1) - 1
		if ci >= j.nchunks {
			return
		}
		lo := int(ci) * j.size
		hi := lo + j.size
		if hi > j.n {
			hi = j.n
		}
		if j.chunkBody != nil {
			j.chunkBody(int(ci), lo, hi)
		} else {
			j.body(lo, hi)
		}
		j.wg.Done()
	}
}

// pool is one generation of physical workers. SetWorkers replaces the
// whole generation: the old one is told to stop, a new one is spawned at
// the new width with a queue whose capacity follows it.
type pool struct {
	width int
	jobs  chan *job
	stop  chan struct{}
}

var (
	// mu serializes resizes (SetWorkers and the lazy first-use spawn).
	mu sync.Mutex
	// cur is the live worker generation; nil while the configured width
	// is 1 (serial pinning needs no goroutines). Submitters read it
	// without mu: a stale pool reference only mis-routes a wake-up.
	cur atomic.Pointer[pool]
	// conf is the configured pool width. Zero means "not yet set":
	// Workers falls back to GOMAXPROCS until SetWorkers pins it.
	conf atomic.Int64
	// live counts running physical workers (see PhysicalWorkers).
	live atomic.Int64
)

// newPool spawns width workers draining a queue sized to the width.
// live is incremented synchronously so PhysicalWorkers observes the
// spawn as soon as SetWorkers returns; each worker decrements on exit.
func newPool(width int) *pool {
	p := &pool{
		width: width,
		jobs:  make(chan *job, 2*width),
		stop:  make(chan struct{}),
	}
	live.Add(int64(width))
	for i := 0; i < width; i++ {
		go func() {
			defer live.Add(-1)
			for {
				select {
				case <-p.stop:
					return
				case j := <-p.jobs:
					j.run()
				}
			}
		}()
	}
	return p
}

// resizeLocked replaces the worker generation to match width. Caller
// holds mu. Retiring is asynchronous — old workers exit when they next
// observe stop — but any job they still hold finishes first, and jobs
// stranded in the abandoned queue are completed by their submitters.
func resizeLocked(width int) {
	p := cur.Load()
	if p != nil {
		if p.width == width {
			return
		}
		close(p.stop)
	}
	if width <= 1 {
		cur.Store(nil)
		return
	}
	cur.Store(newPool(width))
}

// getPool returns the live pool, lazily spawning the default-width
// generation on first parallel use. want is the width the caller just
// read; on mismatch (first use, or a concurrent resize) the
// configuration is re-read under mu so the pool always converges to the
// latest SetWorkers call.
func getPool(want int) *pool {
	if p := cur.Load(); p != nil && p.width == want {
		return p
	}
	mu.Lock()
	defer mu.Unlock()
	resizeLocked(Workers())
	return cur.Load()
}

// Workers reports the configured pool width (defaults to GOMAXPROCS).
func Workers() int {
	if w := conf.Load(); w > 0 {
		return int(w)
	}
	return runtime.GOMAXPROCS(0)
}

// PhysicalWorkers reports how many pool goroutines currently exist. It
// tracks SetWorkers: spawns are visible immediately, retirements once
// the outgoing workers observe their stop signal (poll when asserting
// shrinkage). Width 1 runs every kernel inline in its caller, so the
// count is 0 there.
func PhysicalWorkers() int { return int(live.Load()) }

// SetWorkers sets the pool width and returns the previous value. Unlike
// earlier revisions, the physical pool tracks the configured width:
// workers spawn or retire immediately and the queue capacity follows.
// Width 1 retires the pool entirely and forces every kernel down its
// serial inline path; benchmarks use that to measure serial baselines
// and tests to prove serial and parallel results are bitwise-identical.
// SetWorkers is safe at any time — kernels running during a resize
// complete correctly (their submitters drain the chunk cursor), and
// concurrent kernels observe the new width at their next For call.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	mu.Lock()
	defer mu.Unlock()
	prev := Workers()
	conf.Store(int64(n))
	resizeLocked(n)
	return prev
}

// dispatch publishes the job to up to width-1 workers and then claims
// chunks itself until the loop is done. Wake-up sends never block: if
// the queue is full every worker is already busy (or has a backlog of
// wake-ups), so another reference would not add executors.
func dispatch(j *job, width int) {
	j.wg.Add(int(j.nchunks))
	if p := getPool(width); p != nil {
		helpers := int(j.nchunks) - 1
		if helpers > p.width {
			helpers = p.width
		}
	wake:
		for i := 0; i < helpers; i++ {
			select {
			case p.jobs <- j:
			default:
				break wake
			}
		}
	}
	j.run()
	j.wg.Wait()
}

// For runs body over the index range [0, n), sharded across the pool.
// body(lo, hi) must handle its half-open chunk independently and write
// only output regions disjoint from every other chunk's; under that
// contract the result is bitwise-identical to body(0, n) regardless of
// worker count. minGrain is the smallest chunk worth a dispatch: loops
// with n <= minGrain (or a pool width of 1) run inline.
func For(n, minGrain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minGrain < 1 {
		minGrain = 1
	}
	w := Workers()
	if w == 1 || n <= minGrain {
		body(0, n)
		return
	}
	// Aim for a few chunks per worker so an unlucky scheduling of one
	// large chunk cannot serialize the tail, but never dip below
	// minGrain per chunk.
	chunks := w * 4
	if max := n / minGrain; chunks > max {
		chunks = max
	}
	if chunks < 2 {
		body(0, n)
		return
	}
	size := (n + chunks - 1) / chunks
	dispatch(&job{body: body, n: n, size: size, nchunks: int64(NumChunks(n, size))}, w)
}

// ForChunks runs body over [0, n) in fixed-size chunks of the given
// size; chunk ci covers [ci*size, min(n, (ci+1)*size)). Unlike For, the
// chunk boundaries depend only on (n, size), so reductions that compute
// one partial per chunk and combine partials in chunk order have a
// machine-independent reduction order. NumChunks reports the partial
// count for sizing the accumulator.
func ForChunks(n, size int, body func(ci, lo, hi int)) {
	if n <= 0 {
		return
	}
	if size < 1 {
		size = 1
	}
	nc := NumChunks(n, size)
	w := Workers()
	if w == 1 || nc == 1 {
		for ci := 0; ci < nc; ci++ {
			lo := ci * size
			hi := lo + size
			if hi > n {
				hi = n
			}
			body(ci, lo, hi)
		}
		return
	}
	dispatch(&job{chunkBody: body, n: n, size: size, nchunks: int64(nc)}, w)
}

// Task is one call handed to the pool by Spawn: a single-chunk job
// whose chunk cursor decides who runs it. Either a pool worker pops the
// wake-up and claims the chunk, or Wait finds it unclaimed and runs it
// inline; the atomic claim makes the call run exactly once.
type Task struct{ j job }

// Spawn offers fn to an idle pool worker and returns at once; Wait
// collects it. The wake-up is a non-blocking send to the live pool's
// queue, so Spawn creates no goroutines and never waits: when every
// worker is busy, the queue is full, or the width is 1, no worker runs
// fn and Wait runs it in the caller, which is the serial path. A task
// stranded in the queue of a generation retired by SetWorkers is
// claimed the same way. fn must not touch state its spawner uses
// before Wait returns.
func Spawn(fn func()) *Task {
	t := &Task{j: job{body: func(int, int) { fn() }, n: 1, size: 1, nchunks: 1}}
	t.j.wg.Add(1)
	if w := Workers(); w > 1 {
		if p := getPool(w); p != nil {
			select {
			case p.jobs <- &t.j:
			default:
			}
		}
	}
	return t
}

// Wait returns once the task's call has run: inline, if no worker has
// claimed it yet, otherwise after the claiming worker finishes. Every
// effect of fn happens before Wait returns.
func (t *Task) Wait() {
	t.j.run()
	t.j.wg.Wait()
}

// NumChunks returns how many chunks ForChunks(n, size, ...) will run.
func NumChunks(n, size int) int {
	if n <= 0 {
		return 0
	}
	if size < 1 {
		size = 1
	}
	return (n + size - 1) / size
}
