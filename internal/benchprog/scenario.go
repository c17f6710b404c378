package benchprog

import (
	"fmt"

	"provmark/internal/oskernel"
)

// A Scenario is a benchmark program expressed as data instead of Go
// closures: a list of syscall instructions, each flagged background or
// target exactly like the paper's #ifdef TARGET convention. Because a
// scenario is pure data it can be validated, generated, composed,
// serialized to JSON, and shipped over the /v1 wire as part of a job
// spec — then compiled into a Program and run through the unchanged
// four-stage pipeline.
type Scenario struct {
	Name  string `json:"name"`
	Group int    `json:"group,omitempty"`
	Desc  string `json:"desc,omitempty"`
	// Cred selects the benchmark process credentials: "" or CredUser
	// for the default unprivileged user, CredRoot for root (privileged
	// operations such as chown).
	Cred  string    `json:"cred,omitempty"`
	Setup []SetupOp `json:"setup,omitempty"`
	Steps []Instr   `json:"steps"`
}

// Credential vocabulary for Scenario.Cred.
const (
	CredUser = "user"
	CredRoot = "root"
)

// SetupOp stages one filesystem object before the benchmark process
// launches (the staging-directory preparation of Section 4).
type SetupOp struct {
	// Kind is "file" or "dir".
	Kind string `json:"kind"`
	Path string `json:"path"`
	UID  int    `json:"uid"`
	Mode uint32 `json:"mode"`
}

// Instr is one instruction of a scenario: an op from the kernel's
// syscall dispatch table plus the arguments that op consumes. File
// descriptors and processes created by one instruction are carried to
// later ones through named slots (save_fd / fd, save_proc / proc) —
// the reified "local variables" of the closure programs.
type Instr struct {
	// Op names a dispatch-table syscall.
	Op string `json:"op"`
	// Target marks the instruction as target activity (#ifdef TARGET):
	// skipped in the background variant.
	Target bool `json:"target,omitempty"`
	// Proc names the process slot executing the call ("", "main", or a
	// save_proc slot).
	Proc string `json:"proc,omitempty"`
	// Count repeats the call (consecutive identical calls, e.g. the
	// repeated-reads probe); 0 and 1 both mean once.
	Count int `json:"count,omitempty"`

	Path  string `json:"path,omitempty"`
	Path2 string `json:"path2,omitempty"`
	// FD / FD2 reference descriptor slots by name; SaveFD / SaveFD2
	// bind the returned descriptor(s).
	FD      string   `json:"fd,omitempty"`
	FD2     string   `json:"fd2,omitempty"`
	SaveFD  string   `json:"save_fd,omitempty"`
	SaveFD2 string   `json:"save_fd2,omitempty"`
	NewFD   int      `json:"new_fd,omitempty"`
	DirFD   int      `json:"dir_fd,omitempty"`
	Flags   []string `json:"flags,omitempty"`
	Mode    uint32   `json:"mode,omitempty"`
	N       int64    `json:"n,omitempty"`
	Off     int64    `json:"off,omitempty"`
	Len     int64    `json:"len,omitempty"`
	UID     int      `json:"uid,omitempty"`
	EUID    int      `json:"euid,omitempty"`
	SUID    int      `json:"suid,omitempty"`
	GID     int      `json:"gid,omitempty"`
	EGID    int      `json:"egid,omitempty"`
	SGID    int      `json:"sgid,omitempty"`
	// PID is a literal pid; PIDOf resolves a process slot's pid.
	PID   int      `json:"pid,omitempty"`
	PIDOf string   `json:"pid_of,omitempty"`
	Sig   int      `json:"sig,omitempty"`
	Exe   string   `json:"exe,omitempty"`
	Argv  []string `json:"argv,omitempty"`
	Code  int      `json:"code,omitempty"`
	// SaveProc names the slot a process-creating op binds its child to
	// (default "child").
	SaveProc string `json:"save_proc,omitempty"`
	// Errno is the expected outcome: "" means the call must succeed,
	// ErrnoAny that it must fail with any errno, and a symbolic errno
	// name ("EACCES", …) that it must fail with exactly that errno.
	Errno string `json:"errno,omitempty"`
}

// ErrnoAny marks an instruction that must fail, with any errno.
const ErrnoAny = "any"

// openFlagOrder lists the symbolic open flags in canonical encoding
// order; openFlagBits maps them to kernel flag bits. "rdonly" is zero
// and normalizes away.
var openFlagOrder = []string{"wronly", "rdwr", "creat", "trunc", "append", "cloexec"}

var openFlagBits = map[string]int{
	"rdonly":  oskernel.ORdonly,
	"wronly":  oskernel.OWronly,
	"rdwr":    oskernel.ORdwr,
	"creat":   oskernel.OCreat,
	"trunc":   oskernel.OTrunc,
	"append":  oskernel.OAppend,
	"cloexec": oskernel.OCloexec,
}

// OpenFlagBits maps a symbolic flag list to the kernel's open-flag
// bits — the compiler's flag parsing, exported so synthesized and
// shadow-executed instructions resolve flags identically.
func OpenFlagBits(flags []string) (int, error) {
	bits := 0
	for _, f := range flags {
		b, ok := openFlagBits[f]
		if !ok {
			return 0, fmt.Errorf("benchprog: unknown open flag %q", f)
		}
		bits |= b
	}
	return bits, nil
}

// saveProcSlot resolves the effective save_proc slot name of a
// process-creating instruction.
func (in Instr) saveProcSlot() string {
	if in.SaveProc != "" {
		return in.SaveProc
	}
	return "child"
}

// argFields maps the set fields of an instruction onto the dispatch
// table's argument-field vocabulary (zero-valued fields are
// indistinguishable from absent ones and never reported).
func (in Instr) argFields() []oskernel.Field {
	var out []oskernel.Field
	add := func(set bool, f oskernel.Field) {
		if set {
			out = append(out, f)
		}
	}
	add(in.Path != "", oskernel.FPath)
	add(in.Path2 != "", oskernel.FPath2)
	add(in.FD != "", oskernel.FFD)
	add(in.FD2 != "", oskernel.FFD2)
	add(in.NewFD != 0, oskernel.FNewFD)
	add(in.DirFD != 0, oskernel.FDirFD)
	add(len(in.Flags) > 0, oskernel.FFlags)
	add(in.Mode != 0, oskernel.FMode)
	add(in.N != 0, oskernel.FN)
	add(in.Off != 0, oskernel.FOff)
	add(in.Len != 0, oskernel.FLen)
	add(in.UID != 0, oskernel.FUID)
	add(in.EUID != 0, oskernel.FEUID)
	add(in.SUID != 0, oskernel.FSUID)
	add(in.GID != 0, oskernel.FGID)
	add(in.EGID != 0, oskernel.FEGID)
	add(in.SGID != 0, oskernel.FSGID)
	add(in.PID != 0 || in.PIDOf != "", oskernel.FPID)
	add(in.Sig != 0, oskernel.FSig)
	add(in.Exe != "", oskernel.FExe)
	add(len(in.Argv) > 0, oskernel.FArgv)
	add(in.Code != 0, oskernel.FCode)
	return out
}

// Validate checks the scenario against the dispatch table: every op
// must exist, carry only arguments its table entry consumes, bind
// result slots only when the op returns them, and reference fd/proc
// slots that an earlier instruction of the same variant defines (a
// background instruction cannot depend on a slot only a skipped target
// instruction would have bound).
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	for _, r := range s.Name {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_' || r == '.') {
			return fmt.Errorf("scenario %q: name may only contain letters, digits, '-', '_' and '.'", s.Name)
		}
	}
	if s.Group < 0 || s.Group > 4 {
		return fmt.Errorf("scenario %q: group %d outside Table 1 range 0..4", s.Name, s.Group)
	}
	switch s.Cred {
	case "", CredUser, CredRoot:
	default:
		return fmt.Errorf("scenario %q: unknown cred %q (want %q or %q)", s.Name, s.Cred, CredUser, CredRoot)
	}
	for i, op := range s.Setup {
		if op.Kind != "file" && op.Kind != "dir" {
			return fmt.Errorf("scenario %q: setup %d: unknown kind %q (want file or dir)", s.Name, i, op.Kind)
		}
		if op.Path == "" {
			return fmt.Errorf("scenario %q: setup %d: missing path", s.Name, i)
		}
	}
	if len(s.Steps) == 0 {
		return fmt.Errorf("scenario %q: no steps", s.Name)
	}

	// Slot discipline: track which fd and proc slots each variant has
	// bound so far. Background instructions see only background
	// definitions; target instructions see everything before them.
	type defs struct{ bgFD, fgFD, bgProc, fgProc map[string]bool }
	d := defs{map[string]bool{}, map[string]bool{}, map[string]bool{"main": true}, map[string]bool{"main": true}}
	fdDefined := func(slot string, target bool) bool {
		if target {
			return d.fgFD[slot]
		}
		return d.bgFD[slot]
	}
	procDefined := func(slot string, target bool) bool {
		if slot == "" {
			return true
		}
		if target {
			return d.fgProc[slot]
		}
		return d.bgProc[slot]
	}
	for i, in := range s.Steps {
		sys, ok := oskernel.Dispatch(in.Op)
		if !ok {
			return fmt.Errorf("scenario %q: step %d: unknown op %q", s.Name, i, in.Op)
		}
		for _, f := range in.argFields() {
			if !sys.Takes(f) {
				return fmt.Errorf("scenario %q: step %d: op %q does not take %q", s.Name, i, in.Op, f)
			}
		}
		for _, flag := range in.Flags {
			if _, ok := openFlagBits[flag]; !ok {
				return fmt.Errorf("scenario %q: step %d: unknown open flag %q", s.Name, i, flag)
			}
		}
		if in.Count < 0 {
			return fmt.Errorf("scenario %q: step %d: negative count", s.Name, i)
		}
		// A repeated process-creating call would rebind one proc slot,
		// leaving all but the last child without an exit sweep entry.
		if in.Count > 1 && sys.Returns == oskernel.RProc {
			return fmt.Errorf("scenario %q: step %d: op %q cannot repeat (each child needs its own save_proc slot)", s.Name, i, in.Op)
		}
		switch in.Errno {
		case "", ErrnoAny:
		default:
			e, ok := oskernel.ErrnoByName(in.Errno)
			if !ok || e == oskernel.OK {
				return fmt.Errorf("scenario %q: step %d: unknown errno %q", s.Name, i, in.Errno)
			}
		}
		if in.Op == "exit" && in.Errno != "" {
			return fmt.Errorf("scenario %q: step %d: exit has no errno to expect", s.Name, i)
		}
		if in.SaveFD != "" && sys.Returns != oskernel.RFD && sys.Returns != oskernel.RFDPair {
			return fmt.Errorf("scenario %q: step %d: op %q does not return a descriptor to save", s.Name, i, in.Op)
		}
		if in.SaveFD2 != "" && sys.Returns != oskernel.RFDPair {
			return fmt.Errorf("scenario %q: step %d: op %q does not return a descriptor pair", s.Name, i, in.Op)
		}
		if in.SaveProc != "" && sys.Returns != oskernel.RProc {
			return fmt.Errorf("scenario %q: step %d: op %q does not create a process to save", s.Name, i, in.Op)
		}
		if !procDefined(in.Proc, in.Target) {
			return fmt.Errorf("scenario %q: step %d: undefined process slot %q", s.Name, i, in.Proc)
		}
		if in.PIDOf != "" && in.PID != 0 {
			return fmt.Errorf("scenario %q: step %d: pid and pid_of are mutually exclusive", s.Name, i)
		}
		if in.PIDOf != "" && in.PIDOf != "main" && !procDefined(in.PIDOf, in.Target) {
			return fmt.Errorf("scenario %q: step %d: undefined process slot %q", s.Name, i, in.PIDOf)
		}
		for _, slot := range []string{in.FD, in.FD2} {
			if slot != "" && !fdDefined(slot, in.Target) {
				return fmt.Errorf("scenario %q: step %d: undefined fd slot %q", s.Name, i, slot)
			}
		}
		if sys.Takes(oskernel.FFD) && in.FD == "" {
			return fmt.Errorf("scenario %q: step %d: op %q requires an fd slot", s.Name, i, in.Op)
		}
		if sys.Takes(oskernel.FFD2) && in.FD2 == "" {
			return fmt.Errorf("scenario %q: step %d: op %q requires an fd2 slot", s.Name, i, in.Op)
		}
		// Record this instruction's bindings. A successful outcome is
		// required for a binding (expectOK semantics), so instructions
		// expected to fail define nothing.
		if in.Errno == "" {
			for _, slot := range []string{in.SaveFD, in.SaveFD2} {
				if slot == "" {
					continue
				}
				d.fgFD[slot] = true
				if !in.Target {
					d.bgFD[slot] = true
				}
			}
			if sys.Returns == oskernel.RProc {
				slot := in.saveProcSlot()
				d.fgProc[slot] = true
				if !in.Target {
					d.bgProc[slot] = true
				}
			}
		}
	}
	return nil
}

// Compile translates the scenario into a runnable Program. The
// compiled steps dispatch through the kernel's syscall table and keep
// all run state in the per-run World, so one compiled Program can be
// run repeatedly without sharing state between trials.
func (s Scenario) Compile() (Program, error) {
	if err := s.Validate(); err != nil {
		return Program{}, fmt.Errorf("benchprog: compile: %w", err)
	}
	prog := Program{Name: s.Name, Group: s.Group, Desc: s.Desc}
	if s.Cred == CredRoot {
		prog.Cred = &oskernel.Cred{}
	}
	if len(s.Setup) > 0 {
		setup := append([]SetupOp(nil), s.Setup...)
		prog.Setup = func(k *oskernel.Kernel) {
			for _, op := range setup {
				if op.Kind == "dir" {
					k.MkDir(op.Path, op.UID, op.Mode)
				} else {
					k.MkFile(op.Path, op.UID, op.Mode)
				}
			}
		}
	}
	prog.Steps = make([]Step, 0, len(s.Steps))
	for _, in := range s.Steps {
		prog.Steps = append(prog.Steps, Step{Target: in.Target, Do: compileInstr(in)})
	}
	return prog, nil
}

// MustCompile is Compile for registered (pre-validated) scenarios.
func (s Scenario) MustCompile() Program {
	prog, err := s.Compile()
	if err != nil {
		panic(err)
	}
	return prog
}

// compileInstr lowers one instruction to a step closure. Argument
// parsing happens once at compile time; slot resolution happens at run
// time against the World.
func compileInstr(in Instr) func(w *World) error {
	sys, _ := oskernel.Dispatch(in.Op)
	flags := 0
	for _, f := range in.Flags {
		flags |= openFlagBits[f]
	}
	wantAny := in.Errno == ErrnoAny
	var wantErrno oskernel.Errno
	if !wantAny && in.Errno != "" {
		wantErrno, _ = oskernel.ErrnoByName(in.Errno)
	}
	count := in.Count
	if count < 1 {
		count = 1
	}
	return func(w *World) error {
		p, err := w.Proc(in.Proc)
		if err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			a := oskernel.Args{
				Path: in.Path, Path2: in.Path2,
				NewFD: in.NewFD, DirFD: in.DirFD,
				Flags: flags, Mode: in.Mode,
				N: in.N, Off: in.Off, Len: in.Len,
				UID: in.UID, EUID: in.EUID, SUID: in.SUID,
				GID: in.GID, EGID: in.EGID, SGID: in.SGID,
				PID: in.PID, Sig: in.Sig,
				Exe: in.Exe, Argv: in.Argv, Code: in.Code,
			}
			if in.FD != "" {
				fd, ok := w.FD[in.FD]
				if !ok {
					return fmt.Errorf("unknown fd slot %q", in.FD)
				}
				a.FD = fd
			}
			if in.FD2 != "" {
				fd, ok := w.FD[in.FD2]
				if !ok {
					return fmt.Errorf("unknown fd slot %q", in.FD2)
				}
				a.FD2 = fd
			}
			if in.PIDOf != "" {
				victim, err := w.Proc(in.PIDOf)
				if err != nil {
					return err
				}
				a.PID = victim.PID
			}
			out := sys.Invoke(w.K, p, a)
			switch {
			case in.Op == "exit":
				// exit does not return; nothing to check.
			case wantAny:
				if out.Errno == oskernel.OK {
					return fmt.Errorf("%s unexpectedly succeeded (ret=%d)", in.Op, out.Ret)
				}
			case wantErrno != oskernel.OK:
				if out.Errno == oskernel.OK {
					return fmt.Errorf("%s unexpectedly succeeded (ret=%d)", in.Op, out.Ret)
				}
				if out.Errno != wantErrno {
					return fmt.Errorf("%s failed with %s, want %s", in.Op, out.Errno.Error(), wantErrno.Error())
				}
			default:
				if out.Errno != oskernel.OK {
					return fmt.Errorf("syscall failed: %s", out.Errno.Error())
				}
			}
			if out.Errno == oskernel.OK {
				if in.SaveFD != "" {
					w.FD[in.SaveFD] = int(out.Ret)
				}
				if in.SaveFD2 != "" {
					w.FD[in.SaveFD2] = int(out.Ret2)
				}
				if out.Child != nil {
					w.SetProc(in.saveProcSlot(), out.Child)
				}
			}
		}
		return nil
	}
}
