package core

import (
	"sync"

	"farm/internal/almanac"
)

// Backend selects the execution engine for a deployed machine. The
// register VM is the zero value and the default; the stack VM and the
// AST interpreter remain available for A/B comparison and as the
// semantic reference. All three are cross-restorable: a Snapshot taken
// on any back end restores into any other.
type Backend int

const (
	BackendRegister Backend = iota // register VM over fixed record layouts
	BackendStack                   // stack bytecode VM
	BackendInterp                  // AST interpreter (semantic reference)
)

// String names a backend the way experiment output and bench artifacts
// spell it.
func (b Backend) String() string {
	switch b {
	case BackendRegister:
		return "register"
	case BackendStack:
		return "stack"
	default:
		return "interpreted"
	}
}

// Runner is a deployed machine instance: the AST interpreter (*Seed),
// the stack VM (*vmSeed), or the register VM (*rvmSeed). Soil programs
// against this so the back end can be swapped per deployment.
type Runner interface {
	Machine() *almanac.CompiledMachine
	State() string
	Var(name string) (Value, bool)
	TakeActionCount() int
	Start() error
	HandleTrigger(varName string, data Value) error
	HandleRecv(from MsgSource, v Value) error
	HandleRealloc() error
	Snapshot() Snapshot
	Restore(snap Snapshot) error
}

var (
	_ Runner = (*Seed)(nil)
	_ Runner = (*vmSeed)(nil)
	_ Runner = (*rvmSeed)(nil)
)

// linkedLowered is a Lowered program resolved against this package's
// runtime: literals pre-unboxed, name->index maps for dispatch and
// snapshots, and builtin name slots bound to their implementations
// (plus native unboxed fast paths where we have them).
type linkedLowered struct {
	p        *almanac.Lowered
	lits     []rval
	trigIdx  map[string]int32
	stateIdx map[string]int32
	envIdx   map[string]int32
	svIdx    []map[string]int32
	bfns     []builtinFn
	natives  []nativeFn
	// layouts[i] is the interned record layout for struct site
	// p.Structs[i]: struct literals become a layout pointer plus a flat
	// field slice, no per-record map.
	layouts []*Layout
}

func link(p *almanac.Lowered) *linkedLowered {
	lp := &linkedLowered{p: p}
	lp.lits = make([]rval, len(p.Lits))
	for i, l := range p.Lits {
		switch l.Kind {
		case almanac.LitInt:
			lp.lits[i] = rint(l.I)
		case almanac.LitFloat:
			lp.lits[i] = rfloat(l.F)
		case almanac.LitBool:
			lp.lits[i] = rbool(l.B)
		default:
			lp.lits[i] = rstr(l.S)
		}
	}
	lp.trigIdx = make(map[string]int32, len(p.TriggerNames))
	for i, n := range p.TriggerNames {
		lp.trigIdx[n] = int32(i)
	}
	lp.stateIdx = make(map[string]int32, len(p.States))
	lp.svIdx = make([]map[string]int32, len(p.States))
	for si := range p.States {
		lp.stateIdx[p.States[si].Name] = int32(si)
		idx := make(map[string]int32, len(p.States[si].Slots))
		for vi, s := range p.States[si].Slots {
			idx[s.Name] = int32(vi)
		}
		lp.svIdx[si] = idx
	}
	lp.envIdx = make(map[string]int32, len(p.EnvSlots))
	for i, s := range p.EnvSlots {
		lp.envIdx[s.Name] = int32(i)
	}
	lp.bfns = make([]builtinFn, len(p.Names))
	lp.natives = make([]nativeFn, len(p.Names))
	for i, n := range p.Names {
		if fn, ok := builtins[n]; ok {
			lp.bfns[i] = fn
			lp.natives[i] = vmNatives[n]
		}
	}
	lp.layouts = make([]*Layout, len(p.Structs))
	for i := range p.Structs {
		lp.layouts[i] = LayoutOf(p.Structs[i].TypeName, p.Structs[i].Fields)
	}
	return lp
}

// lowerCache memoizes lowering+linking per compiled machine, so a
// fabric deploying the same machine onto hundreds of switches lowers
// it once.
var lowerCache sync.Map // *almanac.CompiledMachine -> *lowerResult

type lowerResult struct {
	lp  *linkedLowered
	err error
}

func linkedProgram(cm *almanac.CompiledMachine) (*linkedLowered, error) {
	if r, ok := lowerCache.Load(cm); ok {
		res := r.(*lowerResult)
		return res.lp, res.err
	}
	res := &lowerResult{}
	p, err := almanac.Lower(cm, BuiltinNames())
	if err != nil {
		res.err = err
	} else {
		res.lp = link(p)
	}
	lowerCache.Store(cm, res)
	return res.lp, res.err
}

// MutatesRecords reports whether a machine can change a record it is
// handed. Lists are immutable in Almanac (list_append copies), so the
// only way is a struct field-assignment site. A host may share one
// read-only record value among seeds whose machines report false. The
// answer comes from the cached lowering and is conservatively true if
// the machine does not lower.
func MutatesRecords(cm *almanac.CompiledMachine) bool {
	lp, err := linkedProgram(cm)
	return err != nil || len(lp.p.FieldAssigns) > 0
}

// NewRunner deploys a machine on the requested back end. The register
// VM is the default; BackendInterp forces the AST walker. If lowering
// fails (it should not for any sema-accepted program), the interpreter
// is used as a fallback rather than failing the deployment.
func NewRunner(cm *almanac.CompiledMachine, externals map[string]Value, host Host, be Backend) (Runner, error) {
	if be != BackendInterp {
		if lp, err := linkedProgram(cm); err == nil {
			if be == BackendStack {
				return newVMSeed(cm, externals, host, lp)
			}
			return newRVMSeed(cm, externals, host, lp)
		}
	}
	return NewSeed(cm, externals, host)
}
