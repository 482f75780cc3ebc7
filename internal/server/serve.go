package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/jobs"
)

// Serve runs h on addr until SIGINT or SIGTERM, then drains: it stops
// accepting connections and finishes in-flight exchanges, then the
// queue's jobs, all within drainTimeout. Lifecycle lines go to stderr
// prefixed with name; banner is printed as the listener starts. It
// returns the process exit status: 0 on a clean drain, 1 otherwise.
func Serve(name, addr string, h http.Handler, q *jobs.Queue, drainTimeout time.Duration, banner string) int {
	httpSrv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "%s: %s\n", name, banner)
		errCh <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		// Listener failed before any signal (port in use, etc.).
		fmt.Fprintf(os.Stderr, "%s: serve: %v\n", name, err)
		return 1
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintf(os.Stderr, "%s: signal received; draining (budget %v)\n", name, drainTimeout)

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(drainCtx)
	drainErr := q.Shutdown(drainCtx)
	<-errCh // join the serve goroutine (returns ErrServerClosed)

	switch {
	case drainErr != nil:
		fmt.Fprintf(os.Stderr, "%s: drain incomplete: %v\n", name, drainErr)
		return 1
	case shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed):
		fmt.Fprintf(os.Stderr, "%s: http shutdown: %v\n", name, shutdownErr)
		return 1
	}
	fmt.Fprintf(os.Stderr, "%s: drained cleanly\n", name)
	return 0
}
