package par

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestTaskRunsOnce spawns many tasks at full width while the caller
// sometimes waits at once and sometimes only after the worker has had
// time to claim: every task's call must run exactly once either way.
func TestTaskRunsOnce(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	const n = 200
	var runs [n]atomic.Int32
	tasks := make([]*Task, n)
	for i := range tasks {
		i := i
		tasks[i] = Spawn(func() { runs[i].Add(1) })
		if i%3 == 0 {
			time.Sleep(10 * time.Microsecond)
		}
		if i%2 == 0 {
			tasks[i].Wait()
		}
	}
	for _, tk := range tasks {
		tk.Wait()
		tk.Wait() // a second Wait is a no-op
	}
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times, want 1", i, got)
		}
	}
}

// TestTaskInlineAtWidthOne proves width 1 is the serial path: nothing
// runs the call until Wait, which runs it on the caller.
func TestTaskInlineAtWidthOne(t *testing.T) {
	defer SetWorkers(SetWorkers(1))
	var ran atomic.Bool
	tk := Spawn(func() { ran.Store(true) })
	time.Sleep(5 * time.Millisecond)
	if ran.Load() {
		t.Fatal("task ran before Wait at width 1")
	}
	tk.Wait()
	if !ran.Load() {
		t.Fatal("Wait returned before the task ran")
	}
}

// TestTaskStrandedBySetWorkers queues tasks behind busy workers, retires
// that worker generation, and checks that Wait still completes every
// one of them.
func TestTaskStrandedBySetWorkers(t *testing.T) {
	defer SetWorkers(SetWorkers(2))
	// Occupy both workers so the tasks below stay in the queue.
	release := make(chan struct{})
	var busy atomic.Int32
	blockers := []*Task{
		Spawn(func() { busy.Add(1); <-release }),
		Spawn(func() { busy.Add(1); <-release }),
	}
	deadline := time.Now().Add(5 * time.Second)
	for busy.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers never claimed the blocking tasks")
		}
		time.Sleep(time.Millisecond)
	}
	var runs atomic.Int32
	queued := []*Task{
		Spawn(func() { runs.Add(1) }),
		Spawn(func() { runs.Add(1) }),
	}
	SetWorkers(1) // retire the generation holding the queued wake-ups
	for _, tk := range queued {
		tk.Wait()
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("%d stranded tasks ran, want 2", got)
	}
	close(release)
	for _, tk := range blockers {
		tk.Wait()
	}
}

// TestSpawnCreatesNoGoroutines checks that Spawn only offers work to
// the existing workers: the physical worker count is what SetWorkers
// made it, however many tasks are in flight.
func TestSpawnCreatesNoGoroutines(t *testing.T) {
	defer SetWorkers(SetWorkers(3))
	// Let workers retired by earlier tests drain off the count first.
	deadline := time.Now().Add(5 * time.Second)
	for PhysicalWorkers() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("PhysicalWorkers = %d, want 3", PhysicalWorkers())
		}
		time.Sleep(time.Millisecond)
	}
	before := PhysicalWorkers()
	tasks := make([]*Task, 64)
	var sum atomic.Int64
	for i := range tasks {
		i := i
		tasks[i] = Spawn(func() { sum.Add(int64(i)) })
		if got := PhysicalWorkers(); got != before {
			t.Fatalf("PhysicalWorkers = %d after Spawn, want %d", got, before)
		}
	}
	for _, tk := range tasks {
		tk.Wait()
	}
	if got := PhysicalWorkers(); got != before {
		t.Fatalf("PhysicalWorkers = %d after Wait, want %d", got, before)
	}
	if got := sum.Load(); got != 64*63/2 {
		t.Fatalf("sum = %d, want %d", got, 64*63/2)
	}
}
