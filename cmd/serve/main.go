// Command serve is the simulation-as-a-service daemon: a long-lived
// HTTP/JSON process owning the interned cost-model tables, prepared
// scenario designs, and the sweep engine's worker pool and layer-cost
// cache across requests. Endpoints (all under /v1, JSON bodies) mirror
// the one-shot CLIs:
//
//	POST /v1/run     — scenario runs (cmd/scenarios)
//	POST /v1/sweep   — the experiment grid (cmd/sweep -grid), with
//	                   optional NDJSON progress streaming
//	POST /v1/dse     — Table I design-space exploration (cmd/sweep -dse)
//	POST /v1/pareto  — multi-objective exploration (cmd/pareto)
//	GET  /v1/healthz — liveness
//	GET  /v1/stats   — admission, result-cache and cost-cache counters
//
// Identical requests are answered from a content-addressed result
// cache (X-Cache: hit) and a saturated server sheds load with 429 +
// Retry-After under low/high watermark admission control. See the
// README's "serving" section for the protocol.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"mcmnpu/internal/api"
	"mcmnpu/internal/sweep"
)

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so a stalled or trickling client cannot hold a
// connection (and its goroutine) open indefinitely.
const readHeaderTimeout = 10 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it binds the listener, serves until
// ctx is canceled, then drains in-flight requests and returns the
// process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 0, "engine worker count (0 = NumCPU)")
	low := fs.Int("low", 0, "admission low watermark (0 = half of -high)")
	high := fs.Int("high", 8, "admission high watermark (max in-flight requests)")
	cache := fs.Int("cache", 256, "result cache entries (-1 disables)")
	drain := fs.Duration("drain", 30*time.Second, "graceful shutdown drain deadline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	svc := api.NewService(sweep.New(*workers))
	srv := api.NewServer(svc, api.ServerConfig{
		LowWatermark:       *low,
		HighWatermark:      *high,
		ResultCacheEntries: *cache,
	})

	// Every request context descends from the serve context through a
	// cancel cause: when the drain deadline passes, in-flight work is
	// canceled with an explanation instead of being abandoned.
	reqCtx, cancelReqs := context.WithCancelCause(ctx)
	defer cancelReqs(nil)
	hs := newHTTPServer(reqCtx, srv.Handler())

	fmt.Fprintf(stdout, "serving on http://%s (workers=%d, watermarks low=%d high=%d, cache=%d)\n",
		ln.Addr(), svc.Engine().Workers(), *low, *high, *cache)

	// Serve in a goroutine so this goroutine can watch ctx; the buffered
	// channel lets the goroutine exit even if nobody reads the error.
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		// Listener failure before shutdown was requested.
		fmt.Fprintln(stderr, err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "shutting down (draining up to %s)\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drain)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		cancelReqs(fmt.Errorf("serve: drain deadline %s exceeded: %w", *drain, err))
		hs.Close()
		<-errCh
		fmt.Fprintln(stderr, "shutdown: ", err)
		return 1
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, "drained; goodbye")
	return 0
}

// newHTTPServer is the daemon's http.Server around the API handler:
// every request context descends from base, and header reads are
// bounded by readHeaderTimeout.
func newHTTPServer(base context.Context, h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		BaseContext:       func(net.Listener) context.Context { return base },
		ReadHeaderTimeout: readHeaderTimeout,
	}
}
