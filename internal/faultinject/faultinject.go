// Package faultinject is the platform's deterministic fault-injection
// harness: seeded, wall-clock-free decisions about which region read
// attempts crash, stall, slow down or error out, so fault-tolerance tests
// and benchmarks replay the exact same failure schedule on every run.
//
// The injector sits behind the interception points of internal/kvstore:
// every per-replica read attempt, primary-write admission and per-replica
// WAL shipment asks Decide whether (and how) it should misbehave (rules
// select the class with the op= option, default read). Decisions are pure
// functions of the schedule seed, the target (kind, node, region, replica)
// and that target's own operation counter — goroutine interleavings across
// targets cannot change any target's fault sequence, which is what keeps
// the fault-matrix tests and TestScenarioReadFaults reproducible.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"modissense/internal/obs"
)

// Kind enumerates the injectable fault behaviours.
type Kind int

// The fault kinds the harness can inject at a read attempt.
const (
	// Crash fails the attempt immediately with ErrInjectedCrash — the
	// region server died mid-RPC.
	Crash Kind = iota
	// Stall blocks the attempt for Rule.Duration (or until the attempt's
	// context is cancelled) before letting it run — a GC pause, an
	// overloaded server, a network partition that eventually heals.
	Stall
	// SlowScan stretches the attempt's service time by Rule.Factor — the
	// region is alive but degraded (cold cache, noisy neighbour).
	SlowScan
	// ScanError lets the attempt start but fails it with ErrInjectedScan —
	// a corrupt block or a mid-scan lease timeout.
	ScanError
)

// String names the fault kind as used by the schedule DSL.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Stall:
		return "stall"
	case SlowScan:
		return "slow"
	case ScanError:
		return "scanerr"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// OpKind classifies which operation class an injection targets. The zero
// value is OpRead, so every pre-existing rule, schedule string and recorded
// benchmark run keeps its exact meaning (read-only interception).
type OpKind int

// The operation classes the harness can intercept.
const (
	// OpRead targets per-replica coprocessor read attempts (the original
	// interception point in the kvstore read path).
	OpRead OpKind = iota
	// OpPut targets primary-write admission: Table.Put / PutBatch / Delete
	// ask Decide once per region run before applying.
	OpPut
	// OpShip targets WAL shipment to one replica: a faulted ship leaves
	// that replica lagging instead of failing the write.
	OpShip
)

// String names the op kind as used by the schedule DSL's op= option.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpPut:
		return "put"
	case OpShip:
		return "ship"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Injected-fault sentinels; errors.Is distinguishes injected failures from
// organic ones in tests and retry accounting.
var (
	// ErrInjectedCrash is returned by attempts a Crash rule killed.
	ErrInjectedCrash = errors.New("faultinject: injected crash")
	// ErrInjectedScan is returned by attempts a ScanError rule failed.
	ErrInjectedScan = errors.New("faultinject: injected scan error")
)

// Any matches every node, region or replica in a Rule selector field.
const Any = -1

// Rule is one line of a fault schedule: which targets it selects, what
// fault it injects and how often.
type Rule struct {
	// Fault is the behaviour to inject.
	Fault Kind
	// Op selects the operation class the rule intercepts. The zero value
	// is OpRead, keeping every pre-selector schedule byte-compatible; a
	// rule never matches an op of a different class.
	Op OpKind
	// Node selects the simulated node hosting the attempt (Any = all).
	Node int
	// Region selects the region id (Any = all).
	Region int
	// Replica selects the replica index (0 = primary, Any = all).
	Replica int
	// Prob is the per-attempt injection probability; values <= 0 or >= 1
	// mean "always". The roll is a pure hash of (seed, rule, target, op
	// counter) — no shared RNG state, no wall clock.
	Prob float64
	// Duration is how long Stall blocks the attempt.
	Duration time.Duration
	// Factor is SlowScan's service-time multiplier (values <= 1 are
	// treated as no slowdown).
	Factor float64
	// FromOp/ToOp bound the target-local operation window the rule is
	// active in: ops with FromOp <= seq < ToOp match (ToOp = 0 means
	// unbounded), so schedules can express "the third through tenth reads
	// of region 2 fail".
	FromOp uint64
	ToOp   uint64
}

// matches reports whether the rule selects the target.
func (r *Rule) matches(op Op, seq uint64) bool {
	if r.Op != op.Kind {
		return false
	}
	if r.Node != Any && r.Node != op.Node {
		return false
	}
	if r.Region != Any && r.Region != op.Region {
		return false
	}
	if r.Replica != Any && r.Replica != op.Replica {
		return false
	}
	if seq < r.FromOp {
		return false
	}
	if r.ToOp > 0 && seq >= r.ToOp {
		return false
	}
	return true
}

// Schedule is a complete seeded fault plan.
type Schedule struct {
	// Seed drives every probability roll; two injectors with the same
	// schedule make identical decisions.
	Seed int64
	// Rules are evaluated in order for every attempt; all matching rules
	// that pass their roll contribute to the decision (first error wins,
	// stalls and slow factors take the maximum).
	Rules []Rule
}

// Op identifies one intercepted operation for Decide: its class (read
// attempt, primary write, or WAL shipment), which simulated node executes
// it, which region it touches and which replica index is involved. Each
// distinct Op keeps its own deterministic operation counter.
type Op struct {
	// Kind is the operation class (zero = OpRead).
	Kind OpKind
	// Node is the simulated node executing the attempt.
	Node int
	// Region is the region id being read.
	Region int
	// Replica is the replica index serving the read (0 = primary).
	Replica int
}

// Decision is what the interception point must do to the attempt: fail it
// (Err), delay it (Stall) and/or stretch its service time (SlowFactor > 1).
// The zero Decision means "behave normally".
type Decision struct {
	// Err, when non-nil, fails the attempt (ErrInjectedCrash fails before
	// any work, ErrInjectedScan after it).
	Err error
	// Stall delays the attempt's start by this long (bounded by ctx).
	Stall time.Duration
	// SlowFactor stretches the attempt's measured service time when > 1.
	SlowFactor float64
}

// Injector makes deterministic fault decisions for a schedule. Safe for
// concurrent use; a nil *Injector is valid and never injects.
type Injector struct {
	sched Schedule

	mu  sync.Mutex
	ops map[Op]uint64 // per-target op counters
}

// New builds an injector for the schedule.
func New(sched Schedule) *Injector {
	return &Injector{sched: sched, ops: make(map[Op]uint64)}
}

// nextSeq returns and advances the target's operation counter.
func (i *Injector) nextSeq(op Op) uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	seq := i.ops[op]
	i.ops[op] = seq + 1
	return seq
}

// Decide returns what should happen to the attempt. Nil-safe: a nil
// injector returns the zero Decision.
func (i *Injector) Decide(op Op) Decision {
	if i == nil || len(i.sched.Rules) == 0 {
		return Decision{}
	}
	seq := i.nextSeq(op)
	var d Decision
	for ri := range i.sched.Rules {
		r := &i.sched.Rules[ri]
		if !r.matches(op, seq) {
			continue
		}
		if !i.roll(ri, op, seq, r.Prob) {
			continue
		}
		switch r.Fault {
		case Crash:
			if d.Err == nil {
				d.Err = ErrInjectedCrash
			}
			mInjectedCrash.Inc()
		case ScanError:
			if d.Err == nil {
				d.Err = ErrInjectedScan
			}
			mInjectedScanErr.Inc()
		case Stall:
			if r.Duration > d.Stall {
				d.Stall = r.Duration
			}
			mInjectedStall.Inc()
		case SlowScan:
			if r.Factor > d.SlowFactor {
				d.SlowFactor = r.Factor
			}
			mInjectedSlow.Inc()
		}
	}
	return d
}

// roll is the deterministic probability check: a splitmix64 hash of the
// seed, the rule index, the target identity and the target's op counter,
// mapped onto [0, 1).
func (i *Injector) roll(rule int, op Op, seq uint64, prob float64) bool {
	if prob <= 0 || prob >= 1 {
		return true
	}
	x := uint64(i.sched.Seed)
	x = splitmix64(x ^ uint64(rule)*0x9e3779b97f4a7c15)
	x = splitmix64(x ^ uint64(int64(op.Node))*0xbf58476d1ce4e5b9)
	x = splitmix64(x ^ uint64(int64(op.Region))*0x94d049bb133111eb)
	x = splitmix64(x ^ uint64(int64(op.Replica))*0xd6e8feb86659fd93)
	x = splitmix64(x ^ seq)
	return float64(x>>11)/float64(1<<53) < prob
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sleep blocks for d or until ctx is done, returning ctx.Err() when the
// context fired first — the interception point uses it to apply Stall
// decisions without ignoring cancellation.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ParseSchedule parses the `-faults` DSL into a schedule. Rules are
// semicolon-separated; each rule is `kind:key=value,key=value...` with kind
// one of crash|stall|slow|scanerr and keys node, region, replica (target
// selectors, default any), op (operation class: read|put|ship, default
// read — so every pre-selector schedule keeps its meaning), prob (default
// 1), dur (stall duration, Go syntax), factor (slow multiplier), from/to
// (target-local op window).
//
// Example: "stall:node=1,dur=400ms;crash:op=put,node=2;slow:region=3,factor=5,prob=0.5".
func ParseSchedule(spec string, seed int64) (Schedule, error) {
	sched := Schedule{Seed: seed}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kindStr, argStr, _ := strings.Cut(part, ":")
		rule := Rule{Node: Any, Region: Any, Replica: Any}
		switch strings.TrimSpace(kindStr) {
		case "crash":
			rule.Fault = Crash
		case "stall":
			rule.Fault = Stall
		case "slow":
			rule.Fault = SlowScan
		case "scanerr":
			rule.Fault = ScanError
		default:
			return Schedule{}, fmt.Errorf("faultinject: unknown fault kind %q in %q", kindStr, part)
		}
		if argStr != "" {
			for _, kv := range strings.Split(argStr, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return Schedule{}, fmt.Errorf("faultinject: malformed option %q in %q", kv, part)
				}
				if err := rule.setOption(strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
					return Schedule{}, fmt.Errorf("faultinject: %q: %w", part, err)
				}
			}
		}
		if rule.Fault == Stall && rule.Duration <= 0 {
			return Schedule{}, fmt.Errorf("faultinject: stall rule %q needs dur=<duration>", part)
		}
		if rule.Fault == SlowScan && rule.Factor <= 1 {
			return Schedule{}, fmt.Errorf("faultinject: slow rule %q needs factor>1", part)
		}
		sched.Rules = append(sched.Rules, rule)
	}
	return sched, nil
}

// setOption applies one key=value DSL option to the rule.
func (r *Rule) setOption(key, val string) error {
	switch key {
	case "node", "region", "replica":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("invalid %s %q", key, val)
		}
		switch key {
		case "node":
			r.Node = n
		case "region":
			r.Region = n
		default:
			r.Replica = n
		}
	case "op":
		switch val {
		case "read":
			r.Op = OpRead
		case "put":
			r.Op = OpPut
		case "ship":
			r.Op = OpShip
		default:
			return fmt.Errorf("invalid op %q (want read|put|ship)", val)
		}
	case "prob":
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || p < 0 || p > 1 {
			return fmt.Errorf("invalid prob %q", val)
		}
		r.Prob = p
	case "dur":
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 {
			return fmt.Errorf("invalid dur %q", val)
		}
		r.Duration = d
	case "factor":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f <= 0 {
			return fmt.Errorf("invalid factor %q", val)
		}
		r.Factor = f
	case "from", "to":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("invalid %s %q", key, val)
		}
		if key == "from" {
			r.FromOp = n
		} else {
			r.ToOp = n
		}
	default:
		return fmt.Errorf("unknown option %q", key)
	}
	return nil
}

// Injection counters by fault kind; the label set is the fixed Kind enum.
var (
	mInjectedCrash = obs.Default().Counter("faultinject_injected_total",
		"Fault decisions injected, by fault kind.", obs.L("fault", "crash"))
	mInjectedStall = obs.Default().Counter("faultinject_injected_total",
		"Fault decisions injected, by fault kind.", obs.L("fault", "stall"))
	mInjectedSlow = obs.Default().Counter("faultinject_injected_total",
		"Fault decisions injected, by fault kind.", obs.L("fault", "slow"))
	mInjectedScanErr = obs.Default().Counter("faultinject_injected_total",
		"Fault decisions injected, by fault kind.", obs.L("fault", "scanerr"))
)
