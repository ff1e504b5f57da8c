package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gdsx/internal/obs"
	"gdsx/internal/serve"
)

// liveServer is one in-process gdsxd instance on a loopback listener,
// plus the HTTP client the workload's clients share.
type liveServer struct {
	url    string
	client *http.Client
	stop   chan struct{}
	done   chan error
}

// startServer starts gdsxd with its default configuration except that
// per-tenant rate limiting is off: the benchmark is one tenant, and a
// throttled request would measure the limiter, not the service.
func startServer(clients int) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := serve.New(serve.Config{Rate: serve.RateLimit{RPS: -1}})
	ls := &liveServer{
		url:  "http://" + ln.Addr().String(),
		stop: make(chan struct{}),
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	hs := serve.NewHTTPServer("", s.Handler())
	go func() { ls.done <- serve.ServeGraceful(hs, ln, ls.stop, 30*time.Second, s.Drain) }()
	return ls, nil
}

// close drains the server, waits for its serve loop to return and
// drops the client's idle connections.
func (ls *liveServer) close() error {
	close(ls.stop)
	err := <-ls.done
	ls.client.CloseIdleConnections()
	return err
}

// reply is one /run exchange as the client saw it.
type reply struct {
	status int
	resp   serve.Response
	lat    time.Duration
}

// post sends one /run request and reads the whole response. The
// latency covers sending the body through reading the last byte.
func (ls *liveServer) post(t *tracer, body []byte) (reply, error) {
	var r reply
	end := t.begin("http.roundtrip")
	t0 := time.Now()
	hr, err := ls.client.Post(ls.url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		end()
		return r, err
	}
	b, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	r.lat = time.Since(t0)
	end()
	r.status = hr.StatusCode
	if err != nil {
		return r, err
	}
	if r.status == http.StatusOK {
		end = t.begin("client.decode")
		err = json.Unmarshal(b, &r.resp)
		end()
	}
	return r, err
}

// scrape reads /metrics into a map from series (name plus labels) to
// value.
func (ls *liveServer) scrape() (promSnap, error) {
	hr, err := ls.client.Get(ls.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", hr.StatusCode)
	}
	// Buckets are rendered cumulatively and only when non-empty, so they
	// are stored per bucket to make two scrapes subtractable.
	snap := promSnap{}
	cum := map[string]float64{}
	sc := bufio.NewScanner(hr.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		key := line[:i]
		if fam, _, ok := strings.Cut(key, `_bucket{le="`); ok && !strings.HasSuffix(key, `"+Inf"}`) {
			v, cum[fam] = v-cum[fam], v
		}
		snap[key] = v
	}
	return snap, sc.Err()
}

// promSnap is one scrape of gdsxd's Prometheus exposition.
type promSnap map[string]float64

// delta is after minus before, series by series.
func (after promSnap) delta(before promSnap) promSnap {
	d := promSnap{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sumPrefix adds every series whose name starts with prefix (all label
// sets of one family).
func (s promSnap) sumPrefix(prefix string) float64 {
	t := 0.0
	for k, v := range s {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// histQuantile estimates a quantile of a histogram family from its
// power-of-two buckets, with gdsxd's own estimator.
func (s promSnap) histQuantile(fam string, q float64) float64 {
	var v obs.HistogramView
	for le := int64(1); le <= 1<<40; le <<= 1 {
		if n := s[fmt.Sprintf(`%s_bucket{le="%d"}`, fam, le)]; n > 0 {
			v.Buckets = append(v.Buckets, obs.BucketCount{Le: le, Count: int64(n)})
			v.Count += int64(n)
			v.Max = le
		}
	}
	return v.Quantile(q)
}

// waitGoroutines waits until the goroutine count is back at baseline,
// and reports the count if it never gets there.
func waitGoroutines(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines after the server drained, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
