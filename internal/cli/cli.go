// Package cli holds the rules every front end (the command-line tools and
// the service) shares: resolving built-in protocol names, loading the spec
// that -p/-spec name, the engine-name rule, and parsing schedules.
package cli

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"stsyn/internal/core"
	"stsyn/internal/explicit"
	"stsyn/internal/gcl"
	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
	"stsyn/internal/symbolic"
)

// Names lists the built-in protocol names.
const Names = "tokenring, dijkstra, dijkstra3, matching, gouda-acharya, coloring, tworing"

// BuildSpec resolves a built-in protocol name with parameters k and dom.
func BuildSpec(name string, k, dom int) (*protocol.Spec, error) {
	switch strings.ToLower(name) {
	case "tokenring", "tr":
		return protocols.TokenRing(k, dom), nil
	case "dijkstra":
		return protocols.DijkstraTokenRing(k, dom), nil
	case "dijkstra3", "threestate":
		return protocols.DijkstraThreeState(k), nil
	case "matching", "mm":
		return protocols.Matching(k), nil
	case "gouda-acharya", "ga":
		return protocols.GoudaAcharyaMatching(k), nil
	case "coloring", "tc":
		return protocols.Coloring(k), nil
	case "tworing", "tr2":
		return protocols.TwoRingTokenRing(), nil
	default:
		return nil, fmt.Errorf("unknown protocol %q (built-ins: %s)", name, Names)
	}
}

// LoadSpec loads the protocol a tool's -p and -spec flags name: the
// .stsyn file specFile when it is set, else the built-in proto with
// parameters k and dom.
func LoadSpec(proto, specFile string, k, dom int) (*protocol.Spec, error) {
	switch {
	case specFile != "":
		data, err := os.ReadFile(specFile)
		if err != nil {
			return nil, err
		}
		return gcl.Parse(specFile, string(data))
	case proto != "":
		return BuildSpec(proto, k, dom)
	default:
		return nil, fmt.Errorf("need -p <name> or -spec <file> (built-ins: %s)", Names)
	}
}

// ResolveEngine is the engine-name rule: names are case-insensitive, ""
// means auto, and auto picks the explicit engine when
// explicit.AutoSelects(sp) holds and the symbolic engine otherwise. The
// result is "explicit" or "symbolic".
func ResolveEngine(name string, sp *protocol.Spec) (string, error) {
	switch strings.ToLower(name) {
	case "", "auto":
		if explicit.AutoSelects(sp) {
			return "explicit", nil
		}
		return "symbolic", nil
	case "explicit":
		return "explicit", nil
	case "symbolic":
		return "symbolic", nil
	default:
		return "", fmt.Errorf("unknown engine %q (want auto, explicit or symbolic)", name)
	}
}

// NewEngine builds the engine that ResolveEngine picks for name.
func NewEngine(sp *protocol.Spec, name string) (core.Engine, error) {
	resolved, err := ResolveEngine(name, sp)
	if err != nil {
		return nil, err
	}
	if resolved == "explicit" {
		return explicit.New(sp, 0)
	}
	return symbolic.New(sp)
}

// ParseSchedule parses "1,2,3,0" into a schedule slice; empty means default.
func ParseSchedule(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad schedule entry %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseInts parses "5,10,15" into a slice of ints.
func ParseInts(s string) ([]int, error) {
	return ParseSchedule(s)
}
