package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"purec/internal/serve"
)

// instance is one purecd service wired as cmd/purecd wires it
// (serve.New with a cache directory, every other option at its
// default) behind a real net/http server on loopback TCP, plus the
// benchmark's fixed HTTP client.
type instance struct {
	srv    *serve.Server
	http   *http.Server
	url    string
	client *http.Client
	dir    string
	served chan error
}

// startInstance starts a service whose disk cache lives in dir.
func startInstance(dir string, clients int) (*instance, error) {
	srv, err := serve.New(serve.Options{CacheDir: dir})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	in := &instance{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String() + "/run",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
		dir:    dir,
		served: make(chan error, 1),
	}
	go func() { in.served <- in.http.Serve(ln) }()
	return in, nil
}

// close shuts the server down, waits for its Serve loop to return and
// removes the cache directory.
func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.http.Shutdown(ctx)
	if serr := <-in.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	in.client.CloseIdleConnections()
	if rerr := os.RemoveAll(in.dir); err == nil {
		err = rerr
	}
	return err
}

// reply is what one POST /run returned.
type reply struct {
	status int
	body   []byte
	ret    string
	build  string
	prog   string
}

// post sends one request with the given request id and reads the whole
// response, trailers included.
func (in *instance) post(r *Request, id string) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, in.url, bytes.NewReader(r.Body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	// Requests carry an id so spans recorded inside the daemon can be
	// joined with the benchmark's span dump.
	req.Header.Set("X-Purecd-Request", id)
	resp, err := in.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{
		status: resp.StatusCode,
		body:   body,
		ret:    resp.Trailer.Get("X-Purecd-Ret"),
		build:  resp.Header.Get("X-Purecd-Build"),
		prog:   resp.Header.Get("X-Purecd-Program"),
	}, nil
}

// check compares a reply with the request's reference.
func check(rp reply, ref Reference) error {
	switch {
	case rp.status != http.StatusOK:
		return fmt.Errorf("status %d: %s", rp.status, bytes.TrimSpace(rp.body))
	case !bytes.Equal(rp.body, ref.Stdout):
		return fmt.Errorf("stdout %q, want %q", rp.body, ref.Stdout)
	case rp.ret != ref.RetTrailer():
		return fmt.Errorf("ret %q, want %q", rp.ret, ref.RetTrailer())
	}
	return nil
}

// outcome counts the requests of one phase.
type outcome struct {
	mu       sync.Mutex
	attempts int
	failures int
	first    error
	// builds counts X-Purecd-Build values.
	builds map[string]int
}

func (o *outcome) record(rp reply, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempts++
	if o.builds == nil {
		o.builds = map[string]int{}
	}
	o.builds[rp.build]++
	if err != nil {
		o.failures++
		if o.first == nil {
			o.first = err
		}
	}
}

// send posts reqs from clients closed-loop clients, client c sending
// every clients-th request from c, and checks every reply. It returns
// each request's latency (send to last body byte and trailers) and its
// completion time since the phase began.
func (in *instance) send(reqs []Request, refs []Reference, clients int, prefix string, o *outcome) (lat, done []time.Duration) {
	lat = make([]time.Duration, len(reqs))
	done = make([]time.Duration, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += clients {
				t0 := time.Now()
				rp, err := in.post(&reqs[i], fmt.Sprintf("%s-%d", prefix, i))
				lat[i] = time.Since(t0)
				done[i] = time.Since(start)
				if err == nil {
					err = check(rp, refs[reqs[i].Ref])
				}
				o.record(rp, err)
			}
		}(c)
	}
	wg.Wait()
	return lat, done
}

// setUp starts a service in dir and brings it to the workload's
// measured state: first builds, disk population and pool warm-up.
func setUp(w *Workload, refs []Reference, dir string, o *outcome) (*instance, error) {
	in, err := startInstance(dir, w.Clients)
	if err != nil {
		return nil, err
	}
	in.send(w.Build, refs, 1, "build", o)
	in.send(w.Warm, refs, w.Clients, "warm", o)
	return in, nil
}
