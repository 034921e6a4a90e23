package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"vino/internal/crash"
)

// planMagic is the first line of every serialized plan. The trailing
// version lets the format grow without breaking old reproducers.
const planMagic = "vino-fault-plan v1"

// Encode renders the plan in a stable, line-oriented text form that
// Decode reads back verbatim: a failing chaos seed can be captured to a
// file, minimized by deleting rule lines, and replayed as a standalone
// reproducer (vinosim chaos -faultfile). Encode(Decode(s)) is the identity on
// well-formed input modulo comments and blank lines.
//
//	vino-fault-plan v1
//	seed 42
//	rule disk every=17 write
//	rule latency at=55ms window=40ms factor=3
//	rule latency every=9 seek=4 transfer=2
//	rule graft every=7 graft=wild_store
func (p *Plan) Encode() string {
	var b strings.Builder
	b.WriteString(planMagic + "\n")
	fmt.Fprintf(&b, "seed %d\n", p.Seed)
	for _, r := range p.Rules {
		b.WriteString(encodeRule(r) + "\n")
	}
	return b.String()
}

func encodeRule(r Rule) string {
	parts := []string{"rule", string(r.Class)}
	if r.EveryN > 0 {
		parts = append(parts, fmt.Sprintf("every=%d", r.EveryN))
	} else {
		parts = append(parts, fmt.Sprintf("at=%s", r.At))
	}
	if r.Window > 0 {
		parts = append(parts, fmt.Sprintf("window=%s", r.Window))
	}
	if r.Factor > 0 {
		parts = append(parts, fmt.Sprintf("factor=%d", r.Factor))
	}
	if r.SeekFactor > 0 {
		parts = append(parts, fmt.Sprintf("seek=%d", r.SeekFactor))
	}
	if r.TransferFactor > 0 {
		parts = append(parts, fmt.Sprintf("transfer=%d", r.TransferFactor))
	}
	if r.Write {
		parts = append(parts, "write")
	}
	if r.Graft != "" {
		parts = append(parts, "graft="+r.Graft)
	}
	if r.Site != "" {
		parts = append(parts, "site="+string(r.Site))
	}
	return strings.Join(parts, " ")
}

// Decode parses a plan serialized by Encode (or written by hand).
// Blank lines and lines starting with '#' are ignored.
func Decode(s string) (*Plan, error) {
	lines := strings.Split(s, "\n")
	p := &Plan{}
	sawMagic, sawSeed := false, false
	for i, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sawMagic {
			if line != planMagic {
				return nil, fmt.Errorf("fault: line %d: expected %q header, got %q", i+1, planMagic, line)
			}
			sawMagic = true
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "seed":
			if len(fields) != 2 {
				return nil, fmt.Errorf("fault: line %d: seed wants one argument", i+1)
			}
			n, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: line %d: bad seed: %v", i+1, err)
			}
			p.Seed = n
			sawSeed = true
		case "rule":
			r, err := decodeRule(fields[1:])
			if err != nil {
				return nil, fmt.Errorf("fault: line %d: %v", i+1, err)
			}
			p.Rules = append(p.Rules, r)
		default:
			return nil, fmt.Errorf("fault: line %d: unknown directive %q", i+1, fields[0])
		}
	}
	if !sawMagic {
		return nil, fmt.Errorf("fault: missing %q header", planMagic)
	}
	if !sawSeed {
		return nil, fmt.Errorf("fault: missing seed line")
	}
	return p, nil
}

func decodeRule(fields []string) (Rule, error) {
	var r Rule
	if len(fields) == 0 {
		return r, fmt.Errorf("rule wants a class")
	}
	known := make(map[Class]bool)
	for _, c := range AllClasses() {
		known[c] = true
	}
	r.Class = Class(fields[0])
	if !known[r.Class] {
		return r, fmt.Errorf("unknown class %q (known: %v)", fields[0], AllClasses())
	}
	sawTrigger := false
	for _, f := range fields[1:] {
		key, val, hasVal := strings.Cut(f, "=")
		switch key {
		case "write":
			if hasVal {
				return r, fmt.Errorf("write takes no value")
			}
			r.Write = true
			continue
		}
		if !hasVal {
			return r, fmt.Errorf("malformed field %q", f)
		}
		switch key {
		case "at":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return r, fmt.Errorf("bad at=%q", val)
			}
			r.At = d
			sawTrigger = true
		case "every":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n <= 0 {
				return r, fmt.Errorf("bad every=%q", val)
			}
			r.EveryN = n
			sawTrigger = true
		case "window":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return r, fmt.Errorf("bad window=%q", val)
			}
			r.Window = d
		case "factor":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n <= 0 {
				return r, fmt.Errorf("bad factor=%q", val)
			}
			r.Factor = n
		case "seek":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n <= 0 {
				return r, fmt.Errorf("bad seek=%q", val)
			}
			r.SeekFactor = n
		case "transfer":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n <= 0 {
				return r, fmt.Errorf("bad transfer=%q", val)
			}
			r.TransferFactor = n
		case "graft":
			if val == "" {
				return r, fmt.Errorf("empty graft key")
			}
			r.Graft = val
		case "site":
			site, err := crash.ParseSite(val)
			if err != nil {
				return r, fmt.Errorf("bad site=%q", val)
			}
			r.Site = site
		default:
			return r, fmt.Errorf("unknown field %q", key)
		}
	}
	if !sawTrigger {
		return r, fmt.Errorf("rule %s needs at= or every=", r.Class)
	}
	if r.EveryN > 0 && r.At > 0 {
		return r, fmt.Errorf("rule %s sets both at= and every=", r.Class)
	}
	if r.Class == Panic && r.Site == "" {
		return r, fmt.Errorf("rule panic needs site=")
	}
	return r, nil
}
