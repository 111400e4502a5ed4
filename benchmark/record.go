package main

import (
	"encoding/json"
	"os"
	"strconv"
)

// recordExpected recomputes the exact output of the tables workload, its
// experiment seed's tables, and writes it to path. Only a change that
// means to alter the solver's output re-records it.
func recordExpected(path string) error {
	p := defaultParams()
	t := &tables{seed: p.tableSeed}
	e, err := t.regenerate("record")
	if err != nil {
		return err
	}
	all := expectations{Tables: map[string]expectation{strconv.FormatInt(p.tableSeed, 10): e}}
	buf, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
