package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/wire"
)

// proto is the framing a connection speaks.
type proto int

const (
	protoJSON proto = iota
	protoBinary
)

// client is one load-generator connection to ccsd.
type client struct {
	nc    net.Conn
	proto proto
	br    *bufio.Reader
	wr    *wire.Reader
}

func dial(addr string, p proto) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{nc: nc, proto: p, br: bufio.NewReaderSize(nc, 1<<16)}
	if p == protoBinary {
		c.wr = wire.NewReader(c.br, 1<<26)
	}
	return c, nil
}

func dialN(addr string, p proto, n int) ([]*client, error) {
	cs := make([]*client, 0, n)
	for i := 0; i < n; i++ {
		c, err := dial(addr, p)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*client) {
	for _, c := range cs {
		_ = c.nc.Close()
	}
}

// reply reads one reply and returns a private copy: the JSON line
// without its newline, or a binary frame as its type byte followed by
// the payload.
func (c *client) reply() ([]byte, error) {
	if c.proto == protoJSON {
		line, err := c.br.ReadBytes('\n')
		if err != nil {
			return nil, err
		}
		return line[:len(line)-1], nil
	}
	typ, payload, err := c.wr.ReadFrame()
	if err != nil {
		return nil, err
	}
	return append([]byte{byte(typ)}, payload...), nil
}

// roundTrip sends one pre-rendered request and waits for its reply.
func (c *client) roundTrip(req net.Buffers) ([]byte, error) {
	if _, err := req.WriteTo(c.nc); err != nil {
		return nil, err
	}
	return c.reply()
}

// feed hands out pre-rendered requests: one independent stream per
// connection, consumed strictly in order, so a connection's requests are
// always a prefix of its stream whatever the phases consumed before.
// A request is a list of byte slices written with one writev, so large
// shared instance bodies are never copied per request.
type feed interface {
	// next returns connection c's next request and the tag its reply is
	// checked under; ok is false once the stream is exhausted.
	next(c int) (req net.Buffers, tag int, ok bool)
}

// sample is one answered (or failed) request.
type sample struct {
	conn, tag int
	latMs     float64     // from the due time (open loop) or the send (closed loop)
	lateMs    float64     // how late the generator sent it (open loop only)
	reply     []byte      // nil when the request got no reply
	req       net.Buffers // the request as sent (closed loop only)
}

// phase is one timed load phase's outcome.
type phase struct {
	samples   []sample
	elapsed   time.Duration // first due time to last reply
	steal     float64       // the host's steal share over the phase (see stealMeter)
	serverCPU float64       // ccsd's CPU seconds over the phase (closed loops only)
}

// merge pools another run of the same phase into p.
func (p *phase) merge(q *phase) {
	p.samples = append(p.samples, q.samples...)
	p.elapsed += q.elapsed
}

// lats returns the latencies of answered samples.
func (p *phase) lats() []float64 {
	out := make([]float64, 0, len(p.samples))
	for _, s := range p.samples {
		if s.reply != nil {
			out = append(out, s.latMs)
		}
	}
	return out
}

// closedLoop runs every client as a caller that sends its next request
// only once the previous reply arrived, until d has passed (or, with
// maxPerConn > 0, until each client made that many requests).
func closedLoop(cs []*client, f feed, d time.Duration, maxPerConn int) *phase {
	ph := &phase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			var local []sample
			for k := 0; maxPerConn <= 0 || k < maxPerConn; k++ {
				if maxPerConn <= 0 && !time.Now().Before(deadline) {
					break
				}
				req, tag, ok := f.next(i)
				if !ok {
					break
				}
				sent := append(net.Buffers(nil), req...) // WriteTo consumes req
				t0 := time.Now()
				rep, err := c.roundTrip(req)
				s := sample{conn: i, tag: tag, latMs: msSince(t0), reply: rep, req: sent}
				local = append(local, s)
				if err != nil {
					break
				}
			}
			mu.Lock()
			ph.samples = append(ph.samples, local...)
			mu.Unlock()
		}(i, c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// openLoop offers requests at a fixed rate regardless of replies: the
// k-th request is due at k/rate and goes to client k mod len(cs). Each
// reply's latency runs from its request's due time, so a stall also
// charges the wait it imposes on the requests queued behind it.
func openLoop(cs []*client, f feed, rate float64, d time.Duration) *phase {
	total := int(rate * d.Seconds())
	ph := &phase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	due := func(k int) time.Time { return start.Add(time.Duration(float64(k) / rate * float64(time.Second))) }
	type inflight struct {
		tag  int
		due  time.Time
		late float64
	}
	for i, c := range cs {
		// One slot per request this client can be sent, so the sender
		// never blocks on its reader.
		pending := make(chan inflight, total/len(cs)+1)
		wg.Add(2)
		go func(i int, c *client) {
			defer wg.Done()
			defer close(pending)
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			var wrote time.Time // when the previous write returned
			for k := i; k < total; k += len(cs) {
				at := due(k)
				sleepUntil(at)
				// The generator's own lateness: from when it could have
				// sent (the due time, or the end of a write the server's
				// full socket held up) to when it woke to send.
				ready := at
				if wrote.After(ready) {
					ready = wrote
				}
				late := msSince(ready)
				req, tag, ok := f.next(i)
				if !ok {
					return
				}
				if _, err := req.WriteTo(c.nc); err != nil {
					return
				}
				wrote = time.Now()
				pending <- inflight{tag: tag, due: at, late: late}
			}
		}(i, c)
		go func(i int, c *client) {
			defer wg.Done()
			var local []sample
			broken := false
			for p := range pending {
				s := sample{conn: i, tag: p.tag, lateMs: p.late}
				if !broken {
					rep, err := c.reply()
					if err != nil {
						broken = true
					} else {
						s.reply, s.latMs = rep, msSince(p.due)
					}
				}
				local = append(local, s)
			}
			mu.Lock()
			ph.samples = append(ph.samples, local...)
			mu.Unlock()
		}(i, c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// sleepUntil blocks the calling OS thread until t. The runtime's own
// timers wake an idle program only to the millisecond, which would add
// up to a millisecond of the generator's lateness to every open-loop
// latency; nanosleep(2) wakes within the kernel's timer slack.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// stats asks ccsd for its service counters over a fresh JSON connection.
func queryStats(addr string) (*serviceStats, error) {
	c, err := dial(addr, protoJSON)
	if err != nil {
		return nil, err
	}
	defer closeAll([]*client{c})
	rep, err := c.roundTrip(net.Buffers{[]byte("{\"stats\":true}\n")})
	if err != nil {
		return nil, err
	}
	var r struct {
		Stats *serviceStats `json:"stats"`
		Err   string        `json:"error"`
	}
	if err := json.Unmarshal(rep, &r); err != nil {
		return nil, err
	}
	if r.Stats == nil {
		return nil, fmt.Errorf("stats query failed: %s", r.Err)
	}
	return r.Stats, nil
}

// serviceStats mirrors the counters ccsd reports for {"stats":true}.
type serviceStats struct {
	Requests  uint64     `json:"requests"`
	Failures  uint64     `json:"failures"`
	Raw       cacheStats `json:"raw"`
	Solutions cacheStats `json:"solutions"`
	Sessions  *struct {
		Registered      uint64 `json:"registered"`
		DeltaSolves     uint64 `json:"deltaSolves"`
		RepairSolves    uint64 `json:"repairSolves"`
		RepairFallbacks uint64 `json:"repairFallbacks"`
		Unknown         uint64 `json:"unknownSession"`
	} `json:"sessionProtocol"`
}

type cacheStats struct {
	Hits, Misses, Collapsed, Evictions uint64
}
