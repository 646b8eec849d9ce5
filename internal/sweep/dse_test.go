package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"mcmnpu/internal/dse"
	"mcmnpu/internal/workloads"
)

func trunkCfg() workloads.Config {
	cfg := workloads.DefaultConfig()
	cfg.LaneContext = 0.6
	return cfg
}

// TestExploreMatchesSerial is the engine's core contract: the parallel
// reduce returns the serial (*dse.Space).Best result bit-for-bit, for
// every pin and every worker count.
func TestExploreMatchesSerial(t *testing.T) {
	trunks := workloads.Trunks(trunkCfg())
	space := dse.NewCachedSpace(trunks, 9, 85, nil)
	for _, ws := range []int{0, 2, 4, 9} {
		want := space.Best(ws)
		for _, workers := range []int{1, 4, runtime.NumCPU()} {
			got, err := New(workers).Explore(context.Background(), trunks, 9, ws, 85)
			if err != nil {
				t.Fatalf("ws=%d workers=%d: %v", ws, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ws=%d workers=%d:\n got %+v\nwant %+v", ws, workers, got, want)
			}
		}
	}
}

// TestTableIMatchesSerial: the engine's Table I at any worker count
// equals the rows folded serially from (*dse.Space).Best.
func TestTableIMatchesSerial(t *testing.T) {
	trunks := workloads.Trunks(trunkCfg())
	space := dse.NewCachedSpace(trunks, 9, 85, nil)
	ws := space.Best(9)
	ws.Name = "WS"
	want := dse.TableIRows([]dse.Result{space.Best(0), ws, space.Best(2), space.Best(4)})
	for _, workers := range []int{1, 4} {
		got, err := New(workers).TableI(context.Background(), trunks, 85)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d Table I diverges:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

func TestExploreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(2).Explore(ctx, workloads.Trunks(trunkCfg()), 9, 2, 85)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
