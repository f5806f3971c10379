package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// recordReference recomputes digests.json: for every recorded
// evaluation seed, one cold pass's table digests and executor counts
// plus the layer harness's counts; for every recorded sweep seed, one
// pull round's table digests and executor counts.
func recordReference(path, scratch string) error {
	ref := reference{Scale: "micro", Eval: map[string]seedRef{}, Attack: map[string]seedRef{}}
	for seed := uint64(1); seed <= evalSeeds; seed++ {
		scale := evalScale(seed)
		dir := filepath.Join(scratch, "record")
		r := evalPass(scale, planGrid(scale, nil), dir, nil)
		if r.err != nil {
			return fmt.Errorf("evaluation seed %d: %w", seed, r.err)
		}
		if len(r.recs) != len(r.planned) {
			return fmt.Errorf("evaluation seed %d: %d of %d cells resolved", seed, len(r.recs), len(r.planned))
		}
		h, err := runHarness(captureSpecs(scale), r.recs)
		if err != nil {
			return fmt.Errorf("evaluation seed %d: %w", seed, err)
		}
		counts := r.counts
		for k, v := range h.counts {
			counts[k] = v
		}
		ref.Eval[strconv.FormatUint(seed, 10)] = seedRef{Tables: digests(r.tabs), Counts: counts}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "recorded evaluation seed %d (%d cells)\n", seed, len(r.recs))
	}
	for seed := uint64(1); seed <= attackSeeds; seed++ {
		r, err := pullRound(seed, nil)
		if err != nil {
			return fmt.Errorf("sweep seed %d: %w", seed, err)
		}
		if r.workerErr != nil {
			return fmt.Errorf("sweep seed %d: %w", seed, r.workerErr)
		}
		if len(r.recs) != len(r.planned) {
			return fmt.Errorf("sweep seed %d: %d of %d cells resolved", seed, len(r.recs), len(r.planned))
		}
		ref.Attack[strconv.FormatUint(seed, 10)] = seedRef{Tables: digests(r.tabs), Counts: r.counts}
		fmt.Fprintf(os.Stderr, "recorded sweep seed %d (%d cells)\n", seed, len(r.recs))
	}
	out, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
