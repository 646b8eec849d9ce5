package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachRunsAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var hits [100]int32
		err := New(workers).Each(context.Background(), len(hits), func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestEachZeroItems(t *testing.T) {
	if err := New(4).Each(context.Background(), 0, func(int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestEachNoItemsHonorsContext: the n<=0 early return must report a
// dead context instead of masking it (regression: Each used to return
// nil unconditionally for n==0, so a caller looping over empty batches
// never noticed cancellation).
func TestEachNoItemsHonorsContext(t *testing.T) {
	eng := New(4)
	for _, n := range []int{0, -5} {
		if err := eng.Each(context.Background(), n, func(int) error {
			t.Error("fn called with no items")
			return nil
		}); err != nil {
			t.Fatalf("n=%d live ctx: %v", n, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := eng.Each(ctx, n, func(int) error { return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("n=%d cancelled ctx: err = %v, want context.Canceled", n, err)
		}
	}
}

func TestEachPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	var calls int32
	err := New(2).Each(context.Background(), 1000, func(i int) error {
		atomic.AddInt32(&calls, 1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := atomic.LoadInt32(&calls); n == 1000 {
		t.Error("error did not stop the dispatch of remaining items")
	}
}

func TestEachCancellationStopsWorkersPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once atomic.Bool
	var calls int32

	done := make(chan error, 1)
	go func() {
		done <- New(4).Each(ctx, 10000, func(i int) error {
			atomic.AddInt32(&calls, 1)
			if once.CompareAndSwap(false, true) {
				close(started)
			}
			<-ctx.Done() // simulate in-flight work pinned until cancel
			return nil
		})
	}()

	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Each did not return promptly after cancellation")
	}
	if n := atomic.LoadInt32(&calls); n > 8 {
		t.Errorf("cancellation let %d items start (want <= workers per round)", n)
	}
}

func TestEachPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls int32
	err := New(4).Each(ctx, 100, func(int) error {
		atomic.AddInt32(&calls, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapKeepsIndexOrder(t *testing.T) {
	got, err := Map(context.Background(), New(8), 50, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestNewDefaultsToNumCPU(t *testing.T) {
	if w := New(0).Workers(); w != runtime.NumCPU() {
		t.Errorf("Workers() = %d, want NumCPU %d", w, runtime.NumCPU())
	}
	if w := New(-3).Workers(); w != runtime.NumCPU() {
		t.Errorf("Workers() = %d, want NumCPU %d", w, runtime.NumCPU())
	}
	if w := New(7).Workers(); w != 7 {
		t.Errorf("Workers() = %d, want 7", w)
	}
}

func TestMapPartialOnError(t *testing.T) {
	boom := errors.New("boom")
	got, err := Map(context.Background(), New(1), 10, func(i int) (int, error) {
		if i == 5 {
			return 0, boom
		}
		return i + 1, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if len(got) != 10 {
		t.Fatalf("partial slice len = %d, want 10", len(got))
	}
	want := []int{1, 2, 3, 4, 5, 0, 0, 0, 0, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("partial = %v, want %v", got, want)
	}
}

// TestEachRecoversPanic: a panicking item must fail the run like a
// returned error instead of ending the process. Each still waits for
// every in-flight item, and the engine stays usable afterwards.
func TestEachRecoversPanic(t *testing.T) {
	eng := New(4)
	var inflight atomic.Int32
	err := eng.Each(context.Background(), 100, func(i int) error {
		inflight.Add(1)
		defer inflight.Add(-1)
		if i == 3 {
			panic("boom at 3")
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err == nil {
		t.Fatal("Each returned nil after an item panicked")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "sweep: item 3 panicked: boom at 3\n") {
		t.Errorf("error does not name the panicking item and value:\n%s", msg)
	}
	if !strings.Contains(msg, "TestEachRecoversPanic") {
		t.Errorf("error does not carry the stack of the panicking fn:\n%s", msg)
	}
	if n := inflight.Load(); n != 0 {
		t.Errorf("Each returned with %d items still running", n)
	}
	var ran atomic.Int32
	if err := eng.Each(context.Background(), 100, func(int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatalf("Each after a recovered panic: %v", err)
	}
	if ran.Load() != 100 {
		t.Errorf("Each after a recovered panic ran %d of 100 items", ran.Load())
	}
}
