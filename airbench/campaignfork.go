package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"air/internal/campaign"
	"air/internal/config"
)

const (
	campaignMTFs       = 24 // run length of BenchmarkCampaignForkThroughput
	campaignPrefixMTFs = 21 // its shared prefix
)

var campaignFork = &workloadDef{
	name: "campaign-fork",
	run:  runCampaignFork,
	aliases: map[string]string{
		"throughput_per_s": "runs_per_s",
		"op_p50_ms":        "run_p50_ms",
		"op_p95_ms":        "run_p95_ms",
	},
}

// campaignDoc is the seeded campaign document: the built-in mixed-fault
// matrix with the seed as the campaign's master seed.
func campaignDoc(seed uint64, runs, mtfs int) *config.Campaign {
	doc := config.DefaultCampaign()
	doc.Seed = seed
	doc.Runs = runs
	doc.MTFsPerRun = mtfs
	return doc
}

// forkSpec turns the document into the spec campaign.Run executes: the
// set-up this workload measures.
func forkSpec(cfg runConfig) (campaign.Spec, error) {
	doc := campaignDoc(cfg.seed, cfg.size.campaignRuns, campaignMTFs)
	doc.ForkPrefix = true
	doc.PrefixMTFs = campaignPrefixMTFs
	spec, err := campaign.FromConfig(doc)
	if err != nil {
		return spec, err
	}
	spec.Workers = cfg.workers
	spec = spec.Defaulted()
	return spec, spec.Validate()
}

func runCampaignFork(cfg runConfig, tr *tracer) (*phase, error) {
	p := &phase{}
	var spec campaign.Spec
	for i := 0; i <= cfg.size.setupReps*50; i++ { // spec defaulting takes microseconds
		t0 := time.Now()
		s, err := forkSpec(cfg)
		if err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(t0))
		spec = s
	}

	var first [32]byte
	haveFirst := false
	var wall, runs durations
	var allocBytes, mallocs uint64
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	iters := 0
	for ; until(start, cfg.budget, iters); iters++ {
		if tr != nil {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		res, err := campaign.Run(spec)
		d := time.Since(t0)
		if tr != nil {
			runtime.ReadMemStats(&ms1)
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			mallocs += ms1.Mallocs - ms0.Mallocs
		}
		p.attempted += spec.Runs
		if err != nil {
			p.fail(spec.Runs, "campaign %d: %v", iters, err)
			continue
		}
		wall = append(wall, d)
		p.rep(float64(res.Runs), d)
		for _, ob := range res.Observations {
			runs = append(runs, time.Duration(ob.WallNanos))
			if ob.Degraded {
				p.fail(1, "campaign %d run %d degraded: %s", iters, ob.Run, ob.Error)
			}
		}
		data, err := res.JSON()
		if err != nil {
			p.fail(spec.Runs, "campaign %d: %v", iters, err)
			continue
		}
		sum := sha256.Sum256(data)
		if !haveFirst {
			first, haveFirst = sum, true
		} else if sum != first {
			p.fail(spec.Runs, "campaign %d: result JSON differs from the first campaign's", iters)
		}
	}
	p.ops = runs

	// The reference: the same spec on one worker. Results are a pure
	// function of the spec; the worker count changes wall time only.
	one := spec
	one.Workers = 1
	ref, err := campaign.Run(one)
	if err != nil {
		return nil, fmt.Errorf("campaign reference: %w", err)
	}
	refJSON, err := ref.JSON()
	if err != nil {
		return nil, err
	}
	if sha256.Sum256(refJSON) != first {
		p.fail(p.attempted-p.failed, "result JSON differs from the single-worker reference")
	}
	p.digests = map[string]string{"result": fmt.Sprintf("%x", first)}
	if bad := digestMismatches("campaign-fork", cfg, p.digests); len(bad) > 0 {
		p.fail(p.attempted-p.failed, "result JSON differs from digests.json[%s]", digestKey(cfg))
	}
	p.length = map[string]any{"campaigns": iters, "runs_per_campaign": spec.Runs,
		"mtfs_per_run": spec.MTFs, "prefix_mtfs": spec.PrefixMTFs, "workers": spec.Workers,
		"result_sha256": p.digests["result"]}
	if tr != nil {
		nruns := float64(max(len(runs), 1))
		tr.setMs("campaign.run_ms", runs)
		tr.set("campaign.worker_busy_frac", float64(sum(runs))/(float64(sum(wall))*float64(spec.Workers)))
		tr.set("campaign.alloc_mb_per_run", float64(allocBytes)/(1<<20)/nruns)
		tr.set("campaign.mallocs_per_run", float64(mallocs)/nruns)
	}
	return p, nil
}
