package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"air/internal/campaign"
	"air/internal/config"
	"air/internal/fleet"
)

var fleetHTTP = &workloadDef{
	name: "fleet-http",
	run:  runFleetHTTP,
	aliases: map[string]string{
		"throughput_per_s": "runs_per_s",
		"op_p50_ms":        "lease_p50_ms",
		"op_p95_ms":        "lease_p95_ms",
	},
}

// fleetDoc is the seeded campaign the fleet drains: short from-zero runs
// with archive shipping on. Any non-empty archiveDir makes workers stage
// and ship archives; the coordinator stores them under its archive root.
func fleetDoc(cfg runConfig) *config.Campaign {
	doc := campaignDoc(cfg.seed, cfg.size.fleetRuns, cfg.size.fleetMTFs)
	doc.ArchiveDir = "archives"
	return doc
}

// fleetServer is an aircampaignd coordinator served on loopback TCP, and
// the client a worker uses to reach it.
type fleetServer struct {
	dir       string
	coord     *fleet.Coordinator
	srv       *http.Server
	served    sync.WaitGroup
	transport *http.Transport
	client    *fleet.Client
}

func startFleet(dir string, cfg runConfig, ft *fleetTrace) (*fleetServer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	coord, err := fleet.New(fleet.Options{
		LeaseSize:        cfg.size.fleetLease,
		JournalPath:      filepath.Join(dir, "journal.jsonl"),
		KeepObservations: true,
		ArchiveRoot:      filepath.Join(dir, "archives"),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	f := &fleetServer{dir: dir, coord: coord, transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	var h http.Handler = fleet.Handler(coord)
	var rt http.RoundTripper = f.transport
	if ft != nil {
		h = ft.timeServer(h)
		rt = countingTransport{inner: f.transport, ft: ft}
	}
	f.srv = &http.Server{Handler: h}
	f.served.Add(1)
	go func() {
		defer f.served.Done()
		_ = f.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	f.client = &fleet.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: rt, Timeout: time.Minute}}
	return f, nil
}

func (f *fleetServer) close() {
	_ = f.srv.Close()
	f.served.Wait()
	f.transport.CloseIdleConnections()
	_ = f.coord.Close()
}

// get fetches a coordinator resource; a non-2xx status is an error.
func (f *fleetServer) get(path string) ([]byte, error) {
	resp, err := f.client.HTTP.Get(f.client.Base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// fleetTrace holds the fleet layer's timings in a traced run.
type fleetTrace struct {
	acquire, spec, compute, complete durations
	acquires, granted                int

	mu             sync.Mutex
	serverComplete durations //air:guard(mu)

	completeBytes, completeReqs atomic.Int64
}

// timeServer times /fleet/complete inside the coordinator's handler.
func (ft *fleetTrace) timeServer(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/fleet/complete" {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		ft.mu.Lock()
		ft.serverComplete = append(ft.serverComplete, d)
		ft.mu.Unlock()
	})
}

// countingTransport counts the bytes of /fleet/complete request bodies.
type countingTransport struct {
	inner http.RoundTripper
	ft    *fleetTrace
}

func (c countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/fleet/complete" && r.ContentLength > 0 {
		c.ft.completeBytes.Add(r.ContentLength)
		c.ft.completeReqs.Add(1)
	}
	return c.inner.RoundTrip(r)
}

// leaseClock is the fleet.Service the worker loop drives: it forwards to
// the HTTP client and times each lease from the Acquire call that granted
// it to its acknowledged Complete. fleet.Work calls Acquire, Spec and
// Complete from one goroutine; only Heartbeat runs on another, and it
// touches no state here.
type leaseClock struct {
	svc      fleet.Service
	acquired time.Time // start of the Acquire call that granted the lease
	granted  time.Time // its return
	leases   durations
	ft       *fleetTrace
}

func (c *leaseClock) Acquire(worker string) (fleet.Lease, fleet.AcquireState, error) {
	t0 := time.Now()
	l, st, err := c.svc.Acquire(worker)
	if err == nil && st == fleet.Granted {
		c.acquired, c.granted = t0, time.Now()
	}
	if c.ft != nil {
		c.ft.acquire.since(t0)
		c.ft.acquires++
		if err == nil && st == fleet.Granted {
			c.ft.granted++
		}
	}
	return l, st, err
}

func (c *leaseClock) Spec(id string) (campaign.Spec, error) {
	t0 := time.Now()
	s, err := c.svc.Spec(id)
	if c.ft != nil {
		c.ft.spec.since(t0)
	}
	return s, err
}

func (c *leaseClock) Complete(worker string, l fleet.Lease, sh *campaign.Shard) error {
	t0 := time.Now()
	err := c.svc.Complete(worker, l, sh)
	if err == nil {
		c.leases.since(c.acquired)
	}
	if c.ft != nil {
		c.ft.compute = append(c.ft.compute, t0.Sub(c.granted))
		c.ft.complete.since(t0)
	}
	return err
}

func (c *leaseClock) Heartbeat(worker string, l *fleet.Lease, retries int64) error {
	return c.svc.Heartbeat(worker, l, retries)
}

func runFleetHTTP(cfg runConfig, tr *tracer) (*phase, error) {
	p := &phase{}
	doc := fleetDoc(cfg)

	// The reference: campaign.Run on the same document in this process.
	refSpec, err := campaign.FromConfig(doc)
	if err != nil {
		return nil, err
	}
	refSpec.ArchiveDir = "" // archiving never changes results
	refSpec.Workers = cfg.workers
	ref, err := campaign.Run(refSpec)
	if err != nil {
		return nil, fmt.Errorf("fleet reference: %w", err)
	}
	refJSON, err := ref.JSON()
	if err != nil {
		return nil, err
	}

	var ft *fleetTrace
	if tr != nil {
		ft = &fleetTrace{}
	}
	runs := doc.Runs
	// Extra set-ups for the setup_s median. A campaign is one sample, too
	// few at the run length BENCHMARK.json sets, and each set-up includes a
	// journal fsync whose time varies from call to call.
	for i := 0; i < cfg.size.setupReps*5; i++ {
		t0 := time.Now()
		f, err := startFleet(filepath.Join(cfg.work, fmt.Sprintf("setup-%03d", i)), cfg, nil)
		if err != nil {
			return nil, err
		}
		_, err = f.client.Submit(doc)
		p.setup = append(p.setup, time.Since(t0))
		f.close()
		os.RemoveAll(f.dir)
		if err != nil {
			return nil, fmt.Errorf("fleet set-up %d: %w", i, err)
		}
	}

	campaigns, leases := 0, 0
	var retries, archiveBytes, journalBytes int64
	lc := &leaseClock{ft: ft}
	// Each repetition is one campaign on a coordinator of its own, so the
	// coordinator's retained state, and with it the process's memory, is
	// the same however many repetitions the budget allows.
	start := time.Now()
	for ; until(start, cfg.budget, campaigns); campaigns++ {
		t0 := time.Now()
		f, err := startFleet(filepath.Join(cfg.work, fmt.Sprintf("fleet-%03d", campaigns)), cfg, ft)
		if err != nil {
			return nil, err
		}
		tSubmit := time.Now()
		id, err := f.client.Submit(doc)
		p.setup = append(p.setup, time.Since(t0))
		p.attempted += runs
		if err == nil {
			lc.svc = f.client
			var done int
			done, err = fleet.Work(lc, fleet.WorkerOptions{ID: "bench", Workers: cfg.workers, Retries: f.client.Retries})
			leases += done
		}
		var result []byte
		if err == nil {
			result, err = f.get("/campaigns/" + id + "/result")
		}
		d := time.Since(tSubmit)
		switch {
		case err != nil:
			p.fail(runs, "campaign %d: %v", campaigns, err)
		case !bytes.Equal(result, refJSON):
			p.fail(runs, "campaign %d: /result differs from campaign.Run's JSON", campaigns)
		default:
			if err := checkArchiveIndex(f, id, runs); err != nil {
				p.fail(runs, "campaign %d: %v", campaigns, err)
				break
			}
			p.rep(float64(runs), d)
		}
		if r := f.client.Retries(); r > 0 {
			p.fail(int(r), "campaign %d: %d client retries", campaigns, r)
			retries += r
		}
		if ft != nil {
			archiveBytes += dirSize(filepath.Join(f.dir, "archives"))
			journalBytes += dirSize(filepath.Join(f.dir, "journal.jsonl"))
		}
		f.close()
		os.RemoveAll(f.dir)
	}
	p.ops = lc.leases
	p.length = map[string]any{"campaigns": campaigns, "runs_per_campaign": runs,
		"mtfs_per_run": doc.MTFsPerRun, "runs_per_lease": cfg.size.fleetLease, "leases": leases}

	if ft != nil {
		tr.setMs("fleet.acquire_ms", ft.acquire)
		tr.setMs("fleet.spec_ms", ft.spec)
		tr.setMs("fleet.lease_compute_ms", ft.compute)
		tr.setMs("fleet.complete_ms", ft.complete)
		ft.mu.Lock()
		tr.setMs("fleet.server_complete_ms", ft.serverComplete)
		ft.mu.Unlock()
		tr.set("fleet.complete_req_kb", float64(ft.completeBytes.Load())/1024/float64(max(ft.completeReqs.Load(), 1)))
		tr.set("fleet.archive_kb_per_run", float64(archiveBytes)/1024/float64(max(campaigns*runs, 1)))
		tr.set("fleet.journal_kb_per_lease", float64(journalBytes)/1024/float64(max(leases, 1)))
		tr.set("fleet.acquire_useful_ratio", float64(ft.granted)/float64(max(ft.acquires, 1)))
		tr.set("fleet.retries", float64(retries))
	}
	return p, nil
}

// checkArchiveIndex verifies that /campaigns/{id}/archives lists every run.
func checkArchiveIndex(f *fleetServer, id string, runs int) error {
	body, err := f.get("/campaigns/" + id + "/archives")
	if err != nil {
		return err
	}
	var entries []fleet.ArchiveIndexEntry
	if err := json.Unmarshal(body, &entries); err != nil {
		return fmt.Errorf("archive index: %w", err)
	}
	seen := make([]bool, runs)
	for _, e := range entries {
		if e.Run >= 0 && e.Run < runs && e.Records > 0 {
			seen[e.Run] = true
		}
	}
	for r, ok := range seen {
		if !ok {
			return fmt.Errorf("archive index lacks run %d (%d entries)", r, len(entries))
		}
	}
	return nil
}

// dirSize is the total size of the regular files under path.
func dirSize(path string) int64 {
	var n int64
	_ = filepath.WalkDir(path, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
