package main

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Host-speed calibration. The host is shared: how fast the same work
// runs moves by 10–30% over minutes, and mostly through the memory
// system (a pure-ALU loop holds steady while sorts, map lookups and the
// simulator slow down together). So between rounds the benchmark times
// a fixed kernel that is not program code — every worker sorts its own
// copy of the same random floats — and scales each round's timings by
// refCalibMs over the kernel time around that round. The end-to-end
// timings therefore read as times on a host where the kernel takes
// refCalibMs.

// refCalibMs is the reference kernel time. It fixes the unit of every
// scaled timing; changing it is a benchmark change.
const refCalibMs = 25.0

// calibFloats is each worker's sort size (1.6 MB of float64s).
const calibFloats = 200_000

// calibrator samples the kernel in a fresh process of this binary
// (-calibrate), so the kernel's memory and garbage collection stay out
// of the measured process. A nil calibrator does not sample: every
// sample reads refCalibMs and no timing is scaled.
type calibrator struct {
	exe string
	err error // the first failed sample
}

func newCalibrator() (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return &calibrator{exe: exe}, nil
}

// sample returns the kernel time in ms. A failed sample reads
// refCalibMs and is kept in c.err for the run to report.
func (c *calibrator) sample() float64 {
	if c == nil {
		return refCalibMs
	}
	out, err := exec.Command(c.exe, "-calibrate").Output()
	var ms float64
	if err == nil {
		ms, err = strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	}
	if err != nil || ms <= 0 {
		if c.err == nil {
			c.err = fmt.Errorf("calibration sample: %q, %v", out, err)
		}
		return refCalibMs
	}
	return ms
}

// calibrationKernel runs the kernel five times on every CPU and
// returns the median pass time in ms.
func calibrationKernel() float64 {
	r := rand.New(rand.NewSource(1))
	base := make([]float64, calibFloats)
	for i := range base {
		base[i] = r.Float64()
	}
	bufs := make([][]float64, runtime.NumCPU())
	for w := range bufs {
		bufs[w] = make([]float64, calibFloats)
	}
	var ts [5]float64
	for k := range ts {
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, b := range bufs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				copy(b, base)
				slices.Sort(b)
			}()
		}
		wg.Wait()
		ts[k] = float64(time.Since(t0)) / 1e6
	}
	slices.Sort(ts[:])
	return ts[2]
}
