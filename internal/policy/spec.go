package policy

// Granularity is the axis deciding how much of a firing level moves: the
// paper's merge policies (Full, RR, ChooseBest, TestMixed, Mixed) are
// exactly granularity choices, stripped of the preserve flag (now the
// Movement axis) and of the layout they run under.
type Granularity interface {
	// Name identifies the granularity in reports ("Full", "ChooseBest", ...).
	Name() string
	// Decide chooses the merge from level `from` into `from+1`.
	Decide(v View, from int) Decision
}

// Spec names one point of the compaction design space: a choice per axis.
// Zero-value fields mean the paper's defaults — level-overflow trigger,
// full-level granularity, block-preserving movement, leveling layout.
type Spec struct {
	Trigger     Trigger
	Granularity Granularity
	Movement    Movement
	Layout      Layout
}

// Compose compiles a Spec into the Policy the tree runs. The five legacy
// constructors (NewFull, NewRR, ...) are thin wrappers over Compose with
// the leveling layout, so their leveling behavior — and the BlocksWritten
// goldens — is unchanged by composition.
func Compose(s Spec) *Policy {
	if s.Trigger == nil {
		s.Trigger = LevelOverflow{}
	}
	if s.Granularity == nil {
		s.Granularity = &Full{}
	}
	return &Policy{trigger: s.Trigger, gran: s.Granularity, move: s.Movement, layout: s.Layout.withDefaults()}
}

// Policy is a composed merge policy: one choice per axis. It selects what
// to merge when a level overflows by delegating window selection to its
// granularity. Decide may update granularity state (e.g. RR's cursor); the
// tree guarantees that every returned decision is executed.
type Policy struct {
	trigger Trigger
	gran    Granularity
	move    Movement
	layout  Layout
}

// Name identifies the policy in reports. Leveling keeps the legacy names
// byte-identical ("ChooseBest", "RR-P", ...); non-leveling layouts are
// tagged ("Full@tiering(4)").
func (p *Policy) Name() string {
	n := p.gran.Name() + suffix(p.move == PreserveBlocks)
	if p.layout.Kind != Leveling {
		n += "@" + p.layout.String()
	}
	return n
}

// Preserve reports whether merges run with the block-preserving
// optimization.
func (p *Policy) Preserve() bool { return p.move == PreserveBlocks }

// Decide chooses the merge from level `from` into `from+1`.
func (p *Policy) Decide(v View, from int) Decision { return p.gran.Decide(v, from) }

// LevelsGrew forwards tree growth to the granularity when it keeps
// per-level state (RR's cursors).
func (p *Policy) LevelsGrew(oldBottom int) {
	if n, ok := p.gran.(interface{ LevelsGrew(int) }); ok {
		n.LevelsGrew(oldBottom)
	}
}

// Trigger returns the trigger axis.
func (p *Policy) Trigger() Trigger { return p.trigger }

// Granularity returns the granularity axis.
func (p *Policy) Granularity() Granularity { return p.gran }

// Movement returns the movement axis.
func (p *Policy) Movement() Movement { return p.move }

// Layout returns the layout axis.
func (p *Policy) Layout() Layout { return p.layout }

// WithLayout returns a copy of the policy running under a different
// layout; trigger, granularity, and movement are shared.
func (p *Policy) WithLayout(l Layout) *Policy {
	out := *p
	out.layout = l.withDefaults()
	return &out
}

// WithTrigger returns a copy of the policy with a different trigger.
func (p *Policy) WithTrigger(tr Trigger) *Policy {
	out := *p
	out.trigger = tr
	return &out
}

// Mixed returns the Mixed granularity, if the policy has one — the tuning
// surface (tune.go, internal/learn) adjusts τ/β through it.
func (p *Policy) Mixed() (*Mixed, bool) {
	m, ok := p.gran.(*Mixed)
	return m, ok
}

// RR returns the RR granularity, if the policy has one — used by the
// experiment harness to read RR's merge cursor.
func (p *Policy) RR() (*RR, bool) {
	r, ok := p.gran.(*RR)
	return r, ok
}
