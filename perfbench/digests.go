package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"stsyn"
	"stsyn/pkg/stsynapi"
)

// digests.json holds the digest of every protocol the benchmark may see,
// recorded once through the CLI path (-record) and committed: spec keys
// for the default schedule, "spec@schedule" keys for the schedule-search
// winners. Every timed output must render one of these protocols.
//
//go:embed digests.json
var digestsJSON []byte

var expectedDigests = mustDigests()

func mustDigests() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("perfbench: digests.json: " + err.Error())
	}
	return m
}

// digest fingerprints a rendered protocol: the guarded commands of every
// process, as the CLI's -json output and the service both encode them.
func digest(actions []stsynapi.ProcessResult) string {
	b, err := json.Marshal(actions)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func scheduleKey(s spec, sched []int) string {
	parts := make([]string, len(sched))
	for i, p := range sched {
		parts[i] = strconv.Itoa(p)
	}
	return s.key() + "@" + strings.Join(parts, ",")
}

// record recomputes digests.json through the CLI path. Cases that run on
// both engines must render the same protocol on each.
func record(path string) error {
	out := map[string]string{}
	put := func(key, d string) error {
		if old, ok := out[key]; ok && old != d {
			return fmt.Errorf("%s: engines disagree: %s vs %s", key, old, d)
		}
		out[key] = d
		return nil
	}
	cases := append([]cliCase(nil), cliCases...)
	for _, s := range serviceCatalog {
		cases = append(cases, cliCase{spec: s, engine: "auto"})
	}
	for _, c := range cases {
		o, err := runCLI(c, nil, nil, 0, false)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name(), err)
		}
		if !o.verified {
			return fmt.Errorf("%s: not verified", c.name())
		}
		if err := put(c.key(), digest(o.resp.Actions)); err != nil {
			return err
		}
	}
	// Every winner a dist-search job can produce: all schedules of the
	// late-winner spec, the first schedule of the index-0 spec.
	for _, sched := range stsyn.AllSchedules(lateSpec.k) {
		o, err := runCLI(cliCase{spec: lateSpec, engine: "auto"}, sched, nil, 0, false)
		if err != nil {
			continue // a failing schedule: no protocol to record
		}
		if !o.verified {
			return fmt.Errorf("%s: not verified", scheduleKey(lateSpec, sched))
		}
		out[scheduleKey(lateSpec, sched)] = digest(o.resp.Actions)
	}
	first := stsyn.IdentitySchedule(len(mustBuild(firstSpec).Procs))
	o, err := runCLI(cliCase{spec: firstSpec, engine: "auto"}, first, nil, 0, false)
	if err != nil || !o.verified {
		return fmt.Errorf("%s: identity schedule must synthesize a verified protocol (err %v)", firstSpec.key(), err)
	}
	out[scheduleKey(firstSpec, first)] = digest(o.resp.Actions)

	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %q: %q%s\n", k, out[k], sep)
	}
	b.WriteString("}\n")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d digests in %s\n", len(keys), filepath.Clean(path))
	return nil
}
