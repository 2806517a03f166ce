package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseSpec parses the flag-friendly failpoint grammar:
//
//	spec  := entry *( ";" entry )
//	entry := site "=" kind [ "(" arg *( "," arg ) ")" ]
//	arg   := key "=" value | positional
//
// kind is error, latency, panic, or drop. The one positional argument
// is the latency duration ("latency(10ms)") or the error/panic/drop
// message.
// Keyed arguments tune the schedule: every=N (fire on every Nth
// eligible hit), after=N (skip the first N hits), times=K (stop after
// K injections), p=F and seed=S (seeded probability gate), and
// delay=DUR / msg=TEXT as explicit spellings of the positionals.
//
// Example:
//
//	journal/fsync=error(every=3,times=5);server/epoch=latency(50ms,p=0.5,seed=42)
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		rule, err := parseEntry(entry)
		if err != nil {
			return nil, err
		}
		rules = append(rules, rule)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fault: empty spec")
	}
	return rules, nil
}

func parseEntry(entry string) (Rule, error) {
	site, rest, ok := strings.Cut(entry, "=")
	site = strings.TrimSpace(site)
	if !ok || site == "" {
		return Rule{}, fmt.Errorf("fault: entry %q is not site=kind(...)", entry)
	}
	rest = strings.TrimSpace(rest)
	kind, args := rest, ""
	if open := strings.IndexByte(rest, '('); open >= 0 {
		if !strings.HasSuffix(rest, ")") {
			return Rule{}, fmt.Errorf("fault: entry %q has an unclosed argument list", entry)
		}
		kind, args = rest[:open], rest[open+1:len(rest)-1]
	}
	rule := Rule{Site: site, Kind: Kind(strings.ToLower(strings.TrimSpace(kind)))}
	for _, arg := range strings.Split(args, ",") {
		arg = strings.TrimSpace(arg)
		if arg == "" {
			continue
		}
		if err := applyArg(&rule, arg); err != nil {
			return Rule{}, fmt.Errorf("fault: entry %q: %w", entry, err)
		}
	}
	if err := rule.Validate(); err != nil {
		return Rule{}, err
	}
	return rule, nil
}

func applyArg(rule *Rule, arg string) error {
	key, val, keyed := strings.Cut(arg, "=")
	if !keyed {
		// The positional argument: a duration for latency rules, the
		// injected message otherwise.
		if rule.Kind == KindLatency {
			d, err := time.ParseDuration(arg)
			if err != nil {
				return fmt.Errorf("bad latency duration %q: %w", arg, err)
			}
			rule.Delay = d
		} else {
			rule.Msg = arg
		}
		return nil
	}
	key, val = strings.TrimSpace(key), strings.TrimSpace(val)
	switch strings.ToLower(key) {
	case "every":
		return parseUint(val, &rule.Every)
	case "after":
		return parseUint(val, &rule.After)
	case "times":
		return parseUint(val, &rule.Times)
	case "p":
		p, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("bad probability %q: %w", val, err)
		}
		rule.P = p
	case "seed":
		s, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q: %w", val, err)
		}
		rule.Seed = s
	case "delay":
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("bad delay %q: %w", val, err)
		}
		rule.Delay = d
	case "msg":
		rule.Msg = val
	default:
		return fmt.Errorf("unknown argument %q", key)
	}
	return nil
}

func parseUint(val string, dst *uint64) error {
	n, err := strconv.ParseUint(val, 10, 64)
	if err != nil {
		return fmt.Errorf("bad count %q: %w", val, err)
	}
	*dst = n
	return nil
}
