package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
)

// digests.json holds the SHA-256 of every output a workload digests —
// campaign-fork's Result.JSON, each archive-rewind answer — for the
// default seed 1 and the held-out seed 2, at the full and the self-test
// size. A run on one of those seeds and sizes must reproduce them, so a
// change that alters the simulated output fails the check even when it
// alters it the same way on every path the run compares. Regenerate the
// file, after a deliberate change of output, with
//
//	go test -run TestReferenceDigests -update
//
//go:embed digests.json
var digestsJSON []byte

// digestTable maps workload → digestKey → output name → hex SHA-256.
type digestTable map[string]map[string]map[string]string

var referenceDigests = func() digestTable {
	var t digestTable
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		panic("airbench: digests.json: " + err.Error())
	}
	return t
}()

// digestKey names a run's seed and size in digests.json.
func digestKey(cfg runConfig) string { return fmt.Sprintf("%s/seed-%d", cfg.size.name, cfg.seed) }

// digestMismatches lists, in order, the outputs whose digest differs from
// the one digests.json stores for the run's seed and size, or that only one
// of the two has. It lists none when the file has no entry for the run.
func digestMismatches(workload string, cfg runConfig, got map[string]string) []string {
	want, ok := referenceDigests[workload][digestKey(cfg)]
	if !ok {
		return nil
	}
	var bad []string
	for name, sum := range got {
		if want[name] != sum {
			bad = append(bad, name)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}
