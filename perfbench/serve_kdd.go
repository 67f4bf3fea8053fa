package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"boltondp/internal/cli"
	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/eval"
	"boltondp/internal/loss"
	"boltondp/internal/serve"
	"boltondp/internal/vec"
)

// serveKDD serves a private KDD model over HTTP the way dpserve does,
// with CSR-JSON batch requests encoded before timing starts. Each round
// runs a closed loop on one connection (256-row batches), scores the
// same batches in-process, and runs an open loop at a fixed offered
// rate (64-row batches, two connections).
//
// End-to-end metrics on this workload:
//   - rows_per_s: rows scored per second by the closed loop, the median
//     over its one-second slices
//   - accuracy: accuracy of the labels served for the test rows
//   - setup_s: generating the rows, training and publishing the model,
//     building the server and starting it
//
// Reported per layer: serve.http_overhead_x (closed-loop wall per row ÷
// the wall per row of scoring the same batches in-process with the
// kernel the server calls after decoding, serve.Model.ScoreBatchCSRF32),
// workload.latency_p50_ms (open-loop median latency, timed from each
// request's due time) and serve.latency_p99_ms.
var serveKDD = &workload{
	name: "serve-kdd",
	why:  "HTTP and JSON decode of the serving path with no training in the timed phase: one-connection closed loop and a fixed-rate open loop",
	loads: []string{"data (KDDSimSparse)", "serve (HTTP, JSON decode, float32 batch tier, admission, metrics)",
		"cli.BuildDPServe", "eval (PredictSparse)", "go runtime"},
	bypasses: []string{"store", "dist", "training in the measured phase (it is set-up only)", "dense kernel"},
	run:      runServeKDD,
}

const (
	serveScale      = 0.1 // KDDSimSparse scale: ~4.9k test rows are served
	serveClosedRows = 256
	serveOpenRows   = 64
	// serveOpenRate is the open loop's offered rate in requests per
	// second: about half of what one connection sustains at 64-row
	// batches (1.5–1.9k requests/s closed-loop on a 2-vCPU Xeon at this
	// commit), so the queue stays short.
	serveOpenRate  = 800.0
	serveClosedDur = 3000 * time.Millisecond
	serveOpenDur   = 1000 * time.Millisecond
	serveScoreDur  = 300 * time.Millisecond
	serveSlices    = 3 // closed-loop and in-process slices alternated per round
	// serveTailRequests is the length of the traced run's extra open
	// loop: enough samples that p99.9 has ten beyond it.
	serveTailRequests = 10500
	serveLambda       = 1e-3
)

// serveAccuracy is the served labels' accuracy at defaultSeed.
const serveAccuracy = 0.9935235782230317

// servedBatch is one pre-encoded request with the labels the server
// must return.
type servedBatch struct {
	body []byte
	// The request's CSR arrays, for scoring the batch in-process.
	indptr, idx []int
	val         []float64
	rows        []*vec.Sparse
	want        []float64 // in-process f64 labels
	tie         []bool    // margin inside the float32 tier's rounding band
	truth       []float64
}

type serveSet struct {
	addr   string
	model  *eval.Linear
	served *serve.Model // the model as the server's registry holds it
	closed []servedBatch
	open   []servedBatch
}

func runServeKDD(r *run) error {
	ctx := context.Background()
	f := loss.NewLogistic(serveLambda, 0)
	var test *data.SparseDataset
	set, cleanup, err := setupRepeated(r, func() (serveSet, func(), error) {
		var train *data.SparseDataset
		r.timed("data.gen", -1, func(int) error {
			train, test = data.KDDSimSparse(rand.New(rand.NewSource(r.seed)), serveScale*r.scale)
			return nil
		})
		res, err := core.TrainCtx(ctx, train, f,
			core.WithBudget(dp.Budget{Epsilon: 1}), core.WithPasses(2), core.WithBatch(50),
			core.WithRadius(1/serveLambda), core.WithRand(rand.New(rand.NewSource(r.seed))))
		if err != nil {
			return serveSet{}, nil, err
		}
		regDir := filepath.Join(r.work, "registry")
		if err := os.RemoveAll(regDir); err != nil {
			return serveSet{}, nil, err
		}
		reg, err := serve.NewRegistry(regDir)
		if err != nil {
			return serveSet{}, nil, err
		}
		model := &eval.Linear{W: res.W}
		if _, err := r.timed("serve.publish", -1, func(int) error {
			_, err := reg.Publish("kdd", model, map[string]string{"algorithm": "ours", "epsilon": "1"})
			return err
		}); err != nil {
			return serveSet{}, nil, err
		}
		// Admission control is on, with a queue deep enough that the
		// offered load never sheds: a 429 counts as a failure.
		srvReg, srv, err := cli.BuildDPServe(&cli.DPServeConfig{
			ModelsDir: regDir, Workers: 1, MaxInflight: 2, MaxQueue: 256,
		})
		if err != nil {
			return serveSet{}, nil, err
		}
		live := srvReg.Live()
		addr, stop, err := listen(srv.Handler())
		if err != nil {
			return serveSet{}, nil, err
		}
		if err := waitHealthy(addr); err != nil {
			stop()
			return serveSet{}, nil, err
		}
		return serveSet{addr: addr, model: model, served: live}, stop, nil
	})
	defer cleanup()
	if err != nil {
		return err
	}
	set.closed, err = encodeBatches(set.model, test, serveClosedRows)
	if err != nil {
		return err
	}
	set.open, err = encodeBatches(set.model, test, serveOpenRows)
	if err != nil {
		return err
	}

	closedClient := newClient()
	defer closedClient.CloseIdleConnections()
	openClients := []*http.Client{newClient(), newClient()}
	defer func() {
		for _, c := range openClients {
			c.CloseIdleConnections()
		}
	}()

	// One pass over every test row, which also warms the connection:
	// the accuracy of the labels served.
	var correct, total int
	for i := range set.closed {
		b := &set.closed[i]
		labels, err := postBatch(closedClient, set.addr, b.body)
		if r.op(err) != nil {
			continue
		}
		r.checkLabels(b, labels)
		for k, y := range labels {
			total++
			if y == b.truth[k] {
				correct++
			}
		}
	}
	if total == 0 {
		return errNoSamples
	}
	acc := float64(correct) / float64(total)
	r.e2e["accuracy"] = acc
	r.checkAccuracy(acc, serveAccuracy)

	var closed, scored tally
	var closedRates, openLats, serverMS []float64
	var late time.Duration
	next := 0
	err = r.measure(func() { closed, scored, closedRates, openLats, serverMS, late = tally{}, tally{}, nil, nil, nil, 0 }, func(i, round int) error {
		// Closed loop: one connection, next request after the reply.
		closedSlice := func() {
			before := scrapeBatchSeconds(r, set.addr)
			rows := 0
			start := time.Now()
			for time.Since(start) < r.dur(serveClosedDur/serveSlices) {
				b := &set.closed[next%len(set.closed)]
				next++
				var labels []float64
				_, err := r.timed("serve.request", round, func(int) error {
					var err error
					labels, err = postBatch(closedClient, set.addr, b.body)
					return err
				})
				if r.op(err) != nil {
					continue
				}
				r.checkLabels(b, labels)
				rows += len(labels)
				r.count("serve.request_bytes", float64(len(b.body)))
				r.count("serve.request_rows", float64(len(labels)))
			}
			d := time.Since(start)
			closed.add(float64(rows), d)
			closedRates = append(closedRates, float64(rows)/d.Seconds())
			r.rows += float64(rows)
			if after := scrapeBatchSeconds(r, set.addr); after.count > before.count {
				serverMS = append(serverMS, 1e3*(after.sum-before.sum)/(after.count-before.count))
			}
		}
		// The same batches scored in-process by the kernel the server
		// calls once a request is decoded.
		scoreSlice := func() error {
			n := 0
			d, err := r.timed("serve.score", round, func(int) error {
				for start := time.Now(); time.Since(start) < r.dur(serveScoreDur/serveSlices); {
					for j := range set.closed {
						b := &set.closed[j]
						labels, err := set.served.ScoreBatchCSRF32(b.indptr, b.idx, b.val, 1)
						if err != nil {
							return err
						}
						n += len(labels)
					}
				}
				return nil
			})
			if r.op(err) == nil {
				scored.add(float64(n), d)
			}
			return err
		}
		// Short slices of each, alternated, so the machine's drift
		// within a round reaches both sides of the ratio alike.
		for range serveSlices {
			closedSlice()
			if scoreSlice() != nil {
				return nil
			}
		}

		// Open loop at the fixed offered rate.
		lats, l, err := r.openLoop(round, openClients, set.addr, set.open, int(serveOpenRate*r.dur(serveOpenDur).Seconds()))
		if err != nil {
			return err
		}
		openLats = append(openLats, lats...)
		late = max(late, l)
		return nil
	})
	if err != nil {
		return err
	}
	if closed.work == 0 || scored.work == 0 || len(openLats) == 0 {
		return errNoSamples
	}
	r.e2e["rows_per_s"] = median(closedRates)
	r.layer["serve.http_overhead_x"] = scored.rate() / closed.rate()
	r.layer["workload.latency_p50_ms"] = median(openLats)
	fmt.Fprintf(os.Stderr, "perfbench: serve-kdd open loop: %d requests at %.0f/s, p50 %.3f ms, p99 %.3f ms, generator at most %.3f ms late\n",
		len(openLats), serveOpenRate, median(openLats), percentile(openLats, 99), float64(late)/1e6)

	r.layer["serve.latency_p99_ms"] = percentile(openLats, 99)
	if r.tr == nil {
		return nil
	}
	r.layer["data.gen_s"] = r.spanMedian("data.gen") / 1e3
	r.layer["serve.publish_ms"] = r.spanMedian("serve.publish")
	r.layer["serve.server_ms"] = median(serverMS)
	r.layer["serve.decode_share"] = 1 - 1e3*serveClosedRows/scored.rate()/median(serverMS)
	r.layer["serve.request_bytes_per_row"] = r.tr.counts["serve.request_bytes"] / r.tr.counts["serve.request_rows"]
	for range 3 {
		r.timed("eval.score", -1, func(int) error {
			for j := range set.closed {
				for _, x := range set.closed[j].rows {
					sinkLabel += set.model.PredictSparse(x)
				}
			}
			return nil
		})
	}
	r.layer["eval.score_rows_per_s"] = float64(test.Len()) / (r.spanMedian("eval.score") / 1e3)

	// A longer open loop, for a p99.9 with ten samples beyond it.
	tail, tailLate, err := r.openLoop(-1, openClients, set.addr, set.open, r.size(serveTailRequests, 50))
	if err != nil {
		return err
	}
	p := min(tailPercentile(len(tail)), 99.9)
	r.layer["serve.latency_p999_ms"] = percentile(tail, p)
	r.layer["serve.generator_late_ms"] = float64(max(late, tailLate)) / 1e6
	fmt.Fprintf(os.Stderr, "perfbench: serve-kdd tail loop: %d requests, p%g %.3f ms\n", len(tail), p, percentile(tail, p))
	sheds, err := scrapeMetric(set.addr, "dpserve_shed_total")
	if r.op(err) == nil {
		r.layer["serve.shed_total"] = sheds
	}
	return nil
}

// sinkLabel keeps the in-process scoring loop from being optimized away.
var sinkLabel float64

// checkLabels counts one label check per request: every served label
// must equal the in-process float64 label, except on rows whose margin
// lies inside the float32 batch tier's rounding band, where either
// label is correct.
func (r *run) checkLabels(b *servedBatch, got []float64) {
	ok := len(got) == len(b.want)
	for k := 0; ok && k < len(got); k++ {
		ok = got[k] == b.want[k] || b.tie[k]
	}
	r.check(ok, "serve-kdd: served labels differ from in-process PredictSparse")
}

// openLoop offers n requests at serveOpenRate over two connections and
// returns each request's latency in milliseconds, timed from when it
// was due, with how late the generator itself dispatched at worst.
// Requests queue for a free connection when both are busy; that wait
// counts in their latency.
func (r *run) openLoop(parent int, clients []*http.Client, addr string, batches []servedBatch, n int) ([]float64, time.Duration, error) {
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, n) // sized to the number of sends: the generator never blocks
	type outcome struct {
		lat  float64
		err  error
		good bool
	}
	outs := make([]outcome, n)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for j := range jobs {
				b := &batches[j.i%len(batches)]
				var labels []float64
				_, err := r.timed("serve.request", parent, func(int) error {
					var err error
					labels, err = postBatch(c, addr, b.body)
					return err
				})
				o := outcome{lat: float64(time.Since(j.due)) / 1e6, err: err}
				if err == nil {
					o.good = len(labels) == len(b.want)
					for k := 0; o.good && k < len(labels); k++ {
						o.good = labels[k] == b.want[k] || b.tie[k]
					}
				}
				outs[j.i] = o
			}
		}(c)
	}
	interval := time.Duration(math.Round(float64(time.Second) / serveOpenRate))
	start := time.Now()
	var late time.Duration
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = max(late, time.Since(due))
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	lats := make([]float64, 0, n)
	for _, o := range outs {
		if r.op(o.err) != nil {
			continue
		}
		r.check(o.good, "serve-kdd: served labels differ from in-process PredictSparse")
		lats = append(lats, o.lat)
	}
	return lats, late, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		},
	}
}

// postBatch sends one /predict/batch request and returns the labels. A
// non-200 answer, a 429 shed included, is an error.
func postBatch(c *http.Client, addr string, body []byte) ([]float64, error) {
	resp, err := c.Post(addr+"/predict/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("serve-kdd: status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var out struct {
		Labels []float64 `json:"labels"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Labels, nil
}

// encodeBatches splits the rows of d into CSR-JSON batch requests of
// size rows, with the labels each must come back with.
func encodeBatches(m *eval.Linear, d *data.SparseDataset, rows int) ([]servedBatch, error) {
	var out []servedBatch
	for lo := 0; lo < d.Len(); lo += rows {
		hi := min(lo+rows, d.Len())
		req := struct {
			Indptr []int     `json:"indptr"`
			Idx    []int     `json:"idx"`
			Val    []float64 `json:"val"`
		}{Indptr: []int{0}}
		var b servedBatch
		for i := lo; i < hi; i++ {
			x, y := d.Row(i)
			req.Idx = append(req.Idx, x.Idx...)
			req.Val = append(req.Val, x.Val...)
			req.Indptr = append(req.Indptr, len(req.Idx))
			b.rows = append(b.rows, x)
			b.truth = append(b.truth, y)
			b.want = append(b.want, m.PredictSparse(x))
			// The float32 tier perturbs each weight by at most 2⁻²⁴
			// relative, so it can flip only labels whose margin is
			// within that of zero; 2⁻²² leaves room for summation order.
			var margin, mass float64
			for k, j := range x.Idx {
				margin += m.W[j] * x.Val[k]
				mass += math.Abs(m.W[j] * x.Val[k])
			}
			b.tie = append(b.tie, math.Abs(margin) <= mass*0x1p-22)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		b.body = body
		b.indptr, b.idx, b.val = req.Indptr, req.Idx, req.Val
		out = append(out, b)
	}
	return out, nil
}

// listen serves h on a loopback port and returns its base URL and a
// stop function that shuts the server down and waits for it to exit.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	}()
	stop := func() {
		hs.Shutdown(context.Background()) //nolint:errcheck // idle connections only
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

func waitHealthy(addr string) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	for i := 0; i < 100; i++ {
		resp, err := c.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return errors.New("serve-kdd: server never became healthy")
}

type histTotals struct{ sum, count float64 }

// scrapeBatchSeconds reads the server's /predict/batch latency sum and
// count from GET /metrics; zero totals when untraced.
func scrapeBatchSeconds(r *run, addr string) histTotals {
	if r.tr == nil {
		return histTotals{}
	}
	s, err1 := scrapeMetric(addr, `dpserve_request_seconds_sum{route="predict_batch"}`)
	c, err2 := scrapeMetric(addr, `dpserve_request_seconds_count{route="predict_batch"}`)
	if r.op(errors.Join(err1, err2)) != nil {
		return histTotals{}
	}
	return histTotals{s, c}
}

// scrapeMetric returns the value of one series from GET /metrics.
func scrapeMetric(addr, series string) (float64, error) {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("serve-kdd: /metrics has no series %s", series)
}
