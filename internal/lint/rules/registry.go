package rules

import (
	"fmt"
	"sort"
	"strings"

	"lsmssd/internal/lint"
)

// All returns every lsmlint rule: ten syntactic restrictions and five
// path-sensitive rules, which share three dataflow analyses.
func All() []lint.Rule {
	return []lint.Rule{
		// Syntactic.
		deviceIO,
		globalRand,
		uncheckedErr,
		layering,
		treeState,
		obsEvent,
		compactionStep,
		walFrame,
		retryBounded,
		goroutineShutdown,
		// Path-sensitive (CFG + dataflow).
		lockDiscipline,
		shardLockOrder,
		viewRefcount,
		spanFinish,
		sentinelErrorFlow,
	}
}

// Select resolves a comma-separated rule-name list against the registry,
// erroring on unknown names so typos fail loudly.
func Select(names string) ([]lint.Rule, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]lint.Rule{}
	for _, r := range All() {
		byName[r.Name] = r
	}
	var out []lint.Rule
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		r, ok := byName[n]
		if !ok {
			known := make([]string, 0, len(byName))
			for k := range byName {
				known = append(known, k)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown rule %q (known: %s)", n, strings.Join(known, ", "))
		}
		out = append(out, r)
	}
	return out, nil
}
