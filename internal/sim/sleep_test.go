package sim

import (
	"slices"
	"testing"
)

// sleeper is a probeProc that sleeps from Init: it never transmits, and its
// Receive of ⊥ only logs, so the engine may skip it until it is woken.
type sleeper struct{ probeProc }

func (s *sleeper) Init(env *NodeEnv) {
	s.probeProc.Init(env)
	env.Sleep(true)
}

// TestSleepingProcSkippedUntilTouched pins the engine side of
// NodeEnv.Sleep on the 0–1–2 line: node 0 beacons in rounds 3 and 4 only;
// node 1 sleeps throughout, so it is never asked to transmit and receives
// exactly in the rounds the beacon reaches it; node 2 sleeps until the
// environment wakes it before round 6 and is stepped every round from then.
func TestSleepingProcSkippedUntilTouched(t *testing.T) {
	d := lineDual(t)
	beacon := &probeProc{}
	reached, woken := &sleeper{}, &sleeper{}
	env := &hookEnv{
		before: func(t int) {
			beacon.beacon = t == 3 || t == 4
			if t == 6 {
				woken.env.Sleep(false)
			}
		},
		after: func(int) {},
	}
	eng := newTestEngine(t, Config{Dual: d, Procs: []Process{beacon, reached, woken}, Env: env, Seed: 1})
	eng.Run(8)

	all := []int{1, 2, 3, 4, 5, 6, 7, 8}
	for _, c := range []struct {
		name      string
		got, want []int
	}{
		{"beacon Transmit", beacon.txRounds, all},
		{"beacon Receive", beacon.rxRounds, all},
		{"sleeping node 1 Transmit", reached.txRounds, nil},
		{"sleeping node 1 Receive", reached.rxRounds, []int{3, 4}},
		{"woken node 2 Transmit", woken.txRounds, []int{6, 7, 8}},
		{"woken node 2 Receive", woken.rxRounds, []int{6, 7, 8}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s ran in rounds %v, want %v", c.name, c.got, c.want)
		}
	}
	var heard []int
	for _, ev := range eng.Trace().ByKind(EvHear) {
		if ev.Node == 1 && ev.From == 0 {
			heard = append(heard, ev.Round)
		}
	}
	if !slices.Equal(heard, []int{3, 4}) {
		t.Fatalf("sleeping node 1 heard the beacon in rounds %v, want [3 4]", heard)
	}
}

// TestSleepingProcReceivesCollision checks that a transmission reaching a
// sleeper wakes its Receive even when it delivers nothing: node 1, between
// two beacons, is touched by both and receives ⊥.
func TestSleepingProcReceivesCollision(t *testing.T) {
	d := lineDual(t)
	mid := &sleeper{}
	eng := newTestEngine(t, Config{Dual: d, Seed: 1,
		Procs: []Process{&probeProc{beacon: true}, mid, &probeProc{beacon: true}}})
	eng.Run(2)
	if !slices.Equal(mid.rxRounds, []int{1, 2}) || len(mid.txRounds) != 0 {
		t.Fatalf("sleeper between colliding beacons: Receive in %v, Transmit in %v; want [1 2] and none",
			mid.rxRounds, mid.txRounds)
	}
	if eng.Trace().Collisions != 2 || len(eng.Trace().ByKind(EvHear)) != 0 {
		t.Fatalf("%d collisions and %d hears, want 2 and 0",
			eng.Trace().Collisions, len(eng.Trace().ByKind(EvHear)))
	}
}

// TestReplaceProcClearsSleep pins that a restart does not inherit the
// abandoned process's sleep flag: a replacement that never calls Sleep is
// stepped from the next round, and one that sleeps at Init stays asleep.
func TestReplaceProcClearsSleep(t *testing.T) {
	d := lineDual(t)
	eng := newTestEngine(t, Config{Dual: d, Seed: 9,
		Procs: []Process{&sleeper{}, &sleeper{}, &sleeper{}}})
	eng.Run(2)

	awake, asleep := &probeProc{}, &sleeper{}
	eng.ReplaceProc(0, awake)
	eng.ReplaceProc(1, asleep)
	eng.Run(2)
	if !slices.Equal(awake.txRounds, []int{3, 4}) || !slices.Equal(awake.rxRounds, []int{3, 4}) {
		t.Fatalf("replacement of a sleeper: Transmit in %v, Receive in %v; want [3 4] each",
			awake.txRounds, awake.rxRounds)
	}
	if len(asleep.txRounds)+len(asleep.rxRounds) != 0 {
		t.Fatalf("sleeping replacement was stepped: Transmit in %v, Receive in %v",
			asleep.txRounds, asleep.rxRounds)
	}
}

// TestSleepWithoutFlag checks that Sleep is a no-op where the engine keeps
// no flag: on a NodeEnv built by hand, and on the per-node handles of a
// Config.Bank engine.
func TestSleepWithoutFlag(t *testing.T) {
	(&NodeEnv{}).Sleep(true)
	procs := []Process{&sleeper{}, &sleeper{}, &sleeper{}}
	newTestEngine(t, Config{Dual: lineDual(t), Procs: procs, Bank: stubBank{}, Seed: 9})
	for u, p := range procs {
		if env := p.(*sleeper).env; env.asleep != nil {
			t.Fatalf("node %d of a Config.Bank engine got a sleep flag", u)
		}
	}
}
