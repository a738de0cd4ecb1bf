package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"msrp/internal/server"
)

// The load generator is open loop: batches arrive as a Poisson process
// at a fixed rate, whatever the system's state, and are sent by at
// most `clients` connections. Each batch is timed from when it was
// due, so a stall is charged to every batch that queued behind it.

// failedLatency stands in for the latency of a failed batch: a batch
// that fails misses any latency limit.
const failedLatency = time.Hour

// sent is one batch's record.
type sent struct {
	items []server.QueryItem
	body  []byte
	// due, start and done are offsets from the step's start.
	due, start, done time.Duration
	// late is how far past its due time a batch was sent when its
	// worker was idle and waiting for it: the generator's own
	// lateness. Batches that queued behind busy workers have late 0.
	late   time.Duration
	status int
	resp   *server.QueryResponse
	err    error
	// skipped marks a batch never sent because its step overran.
	skipped bool
}

func (b *sent) ok() bool { return b.err == nil && b.status == http.StatusOK && !b.skipped }

func (b *sent) latency() time.Duration {
	if !b.ok() {
		return failedLatency
	}
	return b.done - b.due
}

// loadGen sends batches to one front URL.
type loadGen struct {
	url     string
	client  *http.Client
	clients int
	qg      *queryGen
	tr      *tracer
	reqSeq  atomic.Int64
}

func newLoadGen(url string, clients int, qg *queryGen, tr *tracer) *loadGen {
	return &loadGen{
		url: url,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
		}},
		clients: clients,
		qg:      qg,
		tr:      tr,
	}
}

func (lg *loadGen) close() { lg.client.CloseIdleConnections() }

// run offers batches at rate for dur and returns them, with the
// instant their due times count from, once every sent batch has
// completed. A batch still unsent at 2·dur+1s is skipped, so an
// overloaded step ends in bounded time.
func (lg *loadGen) run(rate float64, dur time.Duration) ([]*sent, time.Time) {
	var batches []*sent
	for at := lg.qg.exp(rate); at < dur; at += lg.qg.exp(rate) {
		items := lg.qg.batch()
		body, err := json.Marshal(server.QueryRequest{Queries: items})
		if err != nil {
			panic(err) // plain structs; cannot fail
		}
		batches = append(batches, &sent{items: items, body: body, due: at})
	}
	cutoff := 2*dur + time.Second
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < lg.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(batches) {
					return
				}
				b := batches[i]
				if wait := b.due - time.Since(t0); wait > 0 {
					sleepUntil(t0, b.due)
					b.late = time.Since(t0) - b.due
				}
				b.start = time.Since(t0)
				if b.start > cutoff {
					b.skipped = true
					continue
				}
				lg.send(b)
				b.done = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return batches, t0
}

// sleepSlack is how early sleepUntil wakes from the kernel sleep: the
// kernel's default timer slack for a thread is 50µs.
const sleepSlack = 55 * time.Microsecond

// sleepUntil blocks until t0+at. The runtime's own timers wake a
// sub-millisecond sleep about a millisecond late, which would swamp
// the latencies measured here, so it sleeps in the kernel instead and
// spins the last few microseconds.
func sleepUntil(t0 time.Time, at time.Duration) {
	if wait := at - time.Since(t0) - sleepSlack; wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil) // an early wake-up is fine: the spin below finishes the wait
	}
	for time.Since(t0) < at {
	}
}

// send posts one batch and decodes the answer. Under an active tracer
// the batch gets a "client" span and carries its request id.
func (lg *loadGen) send(b *sent) {
	req, err := http.NewRequest(http.MethodPost, lg.url+"/v1/query", bytes.NewReader(b.body))
	if err != nil {
		b.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	traced := lg.tr.active()
	var s span
	if traced {
		s = span{ID: lg.tr.id(), Name: "client", Req: lg.reqSeq.Add(1)}
		req.Header.Set(hdrReq, strconv.FormatInt(s.Req, 10))
		req.Header.Set(hdrParent, strconv.FormatInt(s.ID, 10))
		s.Start = lg.tr.now()
	}
	resp, err := lg.client.Do(req)
	if err != nil {
		b.err = err
	} else {
		b.status = resp.StatusCode
		var qr server.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			b.err = fmt.Errorf("decode response: %w", err)
		} else {
			b.resp = &qr
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if traced {
		s.End = lg.tr.now()
		lg.tr.add(s)
	}
}

// stepRow summarises one rate step of the ladder.
type stepRow struct {
	RateBPS    float64 `json:"rateBps"`
	Seconds    float64 `json:"seconds"`
	Offered    int     `json:"offered"`
	Completed  int     `json:"completed"`
	Failed     int     `json:"failedBatches"`
	Skipped    int     `json:"skipped"`
	P50ms      float64 `json:"p50Ms"`
	P99ms      float64 `json:"p99Ms"`
	LateP99ms  float64 `json:"lateP99Ms"`
	QueueP99ms float64 `json:"queueP99Ms"`
	// BacklogEnd counts batches due by the step's end but not yet
	// started then; a steady queue stays within a few per client.
	BacklogEnd int `json:"backlogEnd"`
	// Valid is false when the generator itself ran late (its late p99
	// exceeds a tenth of the p99 limit), so the step measures the
	// client, not the system.
	Valid bool `json:"valid"`
	// Meets is true when the step is valid, nothing failed or was
	// skipped, p99 is within the limit and the backlog did not grow.
	Meets bool `json:"meetsLimit"`
}

func summarise(rate float64, dur time.Duration, batches []*sent, p99Limit time.Duration, clients int) stepRow {
	row := stepRow{RateBPS: rate, Seconds: dur.Seconds(), Offered: len(batches)}
	var lat, late, queue samples
	for _, b := range batches {
		switch {
		case b.skipped:
			row.Skipped++
		case b.ok():
			row.Completed++
		default:
			row.Failed++
		}
		lat = append(lat, b.latency())
		late = append(late, b.late)
		if !b.skipped && b.late == 0 {
			queue = append(queue, b.start-b.due)
		}
		if b.due <= dur && (b.skipped || b.start > dur) {
			row.BacklogEnd++
		}
	}
	row.P50ms = ms(lat.median())
	row.P99ms = ms(lat.quantile(0.99))
	row.LateP99ms = ms(late.quantile(0.99))
	row.QueueP99ms = ms(queue.quantile(0.99))
	row.Valid = late.quantile(0.99) <= p99Limit/10
	row.Meets = row.Valid && row.Failed == 0 && row.Skipped == 0 &&
		lat.quantile(0.99) <= p99Limit && row.BacklogEnd <= 4*clients
	return row
}
