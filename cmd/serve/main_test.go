package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe strings.Builder: run() writes from
// the serve goroutine while the test polls for the startup line.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

func TestServeAndGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errOut syncBuffer

	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2"}, &out, &errOut)
	}()

	// Wait for the daemon to report its bound address.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never started: %q %q", out.String(), errOut.String())
		}
		if s := out.String(); strings.Contains(s, "serving on ") {
			line := s[strings.Index(s, "serving on ")+len("serving on "):]
			base = strings.TrimSpace(strings.Fields(line)[0])
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	// One real request through the daemon end to end.
	resp, err = http.Post(base+"/v1/run", "application/json",
		strings.NewReader(`{"scenarios":["urban-8cam"],"frames":4,"window_frames":2}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Errorf("graceful shutdown not reported: %q", out.String())
	}
}

func TestBadFlagAndArgs(t *testing.T) {
	var out, errOut syncBuffer
	if code := run(context.Background(), []string{"-nope"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag should exit 2, got %d", code)
	}
	if code := run(context.Background(), []string{"stray"}, &out, &errOut); code != 2 {
		t.Errorf("stray argument should exit 2, got %d", code)
	}
}

func TestListenFailure(t *testing.T) {
	var out, errOut syncBuffer
	if code := run(context.Background(), []string{"-addr", "256.0.0.1:0"}, &out, &errOut); code != 1 {
		t.Errorf("unbindable address should exit 1, got %d", code)
	}
	if errOut.String() == "" {
		t.Error("listen failure not reported")
	}
}

// TestServerHasHeaderTimeout: the daemon's http.Server bounds header
// reads, and its request contexts descend from the serve context.
func TestServerHasHeaderTimeout(t *testing.T) {
	type key struct{}
	base := context.WithValue(context.Background(), key{}, "serve")
	hs := newHTTPServer(base, http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v (> 0)", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if got := hs.BaseContext(nil).Value(key{}); got != "serve" {
		t.Fatalf("BaseContext does not descend from the serve context (value %v)", got)
	}
}
