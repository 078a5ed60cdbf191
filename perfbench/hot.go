package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gpuperf"
)

// firstWorkerPort is where the search for a free pair of fixed
// loopback worker ports starts. The router shards by a hash of the
// device fingerprint and the worker URL, so fixed ports give the same
// shard table in every run.
const firstWorkerPort = 47310

// Cluster is the service deployment the hot workload drives: two
// in-process workers, each a library-default Fleet behind
// NewObservedHandler, fronted by a Router, all on loopback HTTP.
type Cluster struct {
	Workers   []string                  // worker base URLs
	Fleets    map[string]*gpuperf.Fleet // by worker URL
	Owner     map[string]string         // device → owning worker URL
	RouterURL string
	Client    *http.Client

	router    *gpuperf.Router
	transport *http.Transport
	rtTrans   *http.Transport
	servers   []*http.Server
	served    sync.WaitGroup
}

// StartCluster builds the deployment. It tries fixed worker port pairs
// in order and keeps the first free pair on which the two devices land
// on different workers, so each worker owns one device. conns caps the
// keep-alive connections per host, for the benchmark's clients and for
// the router's own proxy client alike.
func StartCluster(conns int) (*Cluster, error) {
	for i := 0; i < 64; i++ {
		p := firstWorkerPort + 2*i
		c, err := tryCluster(conns, p, p+1)
		if err != nil {
			return nil, err
		}
		if c != nil {
			return c, nil
		}
	}
	return nil, errors.New("no free worker port pair splits the devices")
}

// tryCluster starts a deployment on the given worker ports; it returns
// nil, nil when a port is taken or the shard table does not split.
func tryCluster(conns, portA, portB int) (*Cluster, error) {
	discard := gpuperf.Telemetry{Logger: slog.New(slog.DiscardHandler)}
	c := &Cluster{Fleets: map[string]*gpuperf.Fleet{}, Owner: map[string]string{}}
	var lns []net.Listener
	for _, p := range []int{portA, portB} {
		ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(p))
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, nil
		}
		lns = append(lns, ln)
	}
	for _, ln := range lns {
		url := "http://" + ln.Addr().String()
		f := gpuperf.NewFleet(gpuperf.FleetOptions{})
		c.Workers = append(c.Workers, url)
		c.Fleets[url] = f
		c.serve(ln, gpuperf.NewObservedHandler(f, discard))
	}
	c.rtTrans = &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	rt, err := gpuperf.NewRouter(gpuperf.RouterOptions{
		Workers:   c.Workers,
		Client:    &http.Client{Transport: c.rtTrans},
		Telemetry: discard,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.router = rt
	for _, d := range Devices {
		wk, err := rt.ShardFor(d)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Owner[d] = wk
	}
	if c.Owner[Devices[0]] == c.Owner[Devices[1]] {
		c.Close()
		return nil, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	c.RouterURL = "http://" + ln.Addr().String()
	c.serve(ln, rt.Handler())
	c.transport = &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	c.Client = &http.Client{Transport: c.transport}
	return c, nil
}

func (c *Cluster) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	c.servers = append(c.servers, srv)
	c.served.Add(1)
	go func() {
		defer c.served.Done()
		srv.Serve(ln)
	}()
}

// Close stops the router, the servers and every connection, and waits
// for the serving goroutines to return.
func (c *Cluster) Close() {
	if c.router != nil {
		c.router.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range c.servers {
		srv.Shutdown(ctx)
	}
	c.served.Wait()
	for _, t := range []*http.Transport{c.transport, c.rtTrans} {
		if t != nil {
			t.CloseIdleConnections()
		}
	}
}

// Path returns the HTTP route serving req's operation.
func Path(req Request) string { return "/v1/" + string(req.Op) }

// Body returns req's JSON request body.
func Body(req Request) ([]byte, error) {
	if req.Op == OpCompare {
		return json.Marshal(compareRequest(req))
	}
	return json.Marshal(fleetRequest(req))
}

// Reply is one HTTP answer.
type Reply struct {
	Status int
	ETag   string
	Cache  string
	Body   []byte
}

// Post sends one JSON request, with If-None-Match when etag is set,
// and reads the whole answer.
func (c *Cluster) Post(ctx context.Context, url string, body []byte, etag string) (Reply, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return Reply{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if etag != "" {
		hreq.Header.Set("If-None-Match", etag)
	}
	resp, err := c.Client.Do(hreq)
	if err != nil {
		return Reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return Reply{}, err
	}
	return Reply{Status: resp.StatusCode, ETag: resp.Header.Get("ETag"), Cache: resp.Header.Get("X-Cache"), Body: data}, nil
}

// HotRef is the answer that filled one tuple's cache slot.
type HotRef struct {
	Body []byte
	ETag string
}

// Expect checks a repeat answer against the reference: a revalidation
// must be a 304 carrying the same ETag, anything else a 200 HIT whose
// body is byte-identical to the one that filled the slot.
func (ref HotRef) Expect(rep Reply, revalidate bool) error {
	if revalidate {
		if rep.Status != http.StatusNotModified || rep.ETag != ref.ETag {
			return fmt.Errorf("revalidation answered %d with ETag %s, want 304 with %s", rep.Status, rep.ETag, ref.ETag)
		}
		return nil
	}
	if rep.Status != http.StatusOK || rep.Cache != string(gpuperf.CacheHit) {
		return fmt.Errorf("answered %d X-Cache %q, want 200 HIT", rep.Status, rep.Cache)
	}
	if !bytes.Equal(rep.Body, ref.Body) {
		return errors.New("HIT body differs from the body that filled the slot")
	}
	return nil
}

// DecodeOutput parses an HTTP answer body for req's operation.
func DecodeOutput(req Request, body []byte) (Output, error) {
	var o Output
	var v any
	switch req.Op {
	case OpAnalyze:
		o.Result = new(gpuperf.Result)
		v = o.Result
	case OpAdvise:
		o.Advice = new(gpuperf.Advice)
		v = o.Advice
	case OpCompare:
		o.Comparison = new(gpuperf.Comparison)
		v = o.Comparison
	case OpMeasure:
		o.Measurement = new(gpuperf.Measurement)
		v = o.Measurement
	}
	if err := json.Unmarshal(body, v); err != nil {
		return Output{}, fmt.Errorf("decoding %s answer: %w", req.Op, err)
	}
	return o, nil
}
