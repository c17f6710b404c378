package oskernel

import (
	"fmt"
	"strconv"
	"time"
)

// Cred is a process credential set (real, effective and saved ids, as
// the setres* family needs all three).
type Cred struct {
	UID, EUID, SUID int
	GID, EGID, SGID int
}

// filDesc is an open file description, shared between fds after dup or
// fork (as in the kernel: dup'd descriptors share offset and flags).
type filDesc struct {
	inode  *Inode
	path   string
	flags  int
	offset int64
	refs   int
}

// Open flags understood by the simulator.
const (
	ORdonly  = 0x0
	OWronly  = 0x1
	ORdwr    = 0x2
	OCreat   = 0x40
	OTrunc   = 0x200
	OAppend  = 0x400
	OCloexec = 0x80000
)

// Process is a simulated task.
type Process struct {
	PID    int
	PPID   int
	Cred   Cred
	Comm   string
	Exe    string
	Argv   []string
	Env    []string
	fds    map[int]*filDesc
	nextFD int
	Alive  bool
	// noLibc marks children created by raw clone(2): the interposition
	// runtime is never initialized in them, so the libc tap stays
	// silent for their calls (and OPUS is blind to them).
	noLibc bool
	// vforkParent, when non-nil, is a parent whose audit records are
	// deferred until this child exits (the Section 4.2 quirk).
	vforkPending []AuditEvent
	vforkParent  *Process
}

// Kernel is the simulated operating system.
type Kernel struct {
	vfs      *vfs
	procs    map[int]*Process
	nextPID  int
	clock    time.Time
	tick     time.Duration
	tracers  []Tracer
	seq      uint64
	initProc *Process
}

// New boots a kernel with an init process (PID 1) and a shell-like
// launcher process, and a populated /lib, /etc and /usr/bin.
func New() *Kernel {
	k := &Kernel{
		vfs:     newVFS(),
		procs:   make(map[int]*Process),
		nextPID: 1,
		clock:   time.Date(2019, 9, 24, 12, 0, 0, 0, time.UTC),
		tick:    time.Millisecond,
	}
	// Standard files the launcher and benchmarks reference.
	for _, f := range []struct {
		p    string
		mode uint32
		uid  int
	}{
		{"/lib/ld-linux.so", 0o755, 0},
		{"/lib/libc.so.6", 0o755, 0},
		{"/etc/passwd", 0o644, 0},
		{"/etc/ld.so.cache", 0o644, 0},
		{"/usr/bin/bench", 0o755, 0},
		{"/usr/bin/helper", 0o755, 0},
		{"/usr/bin/sh", 0o755, 0},
	} {
		ino := k.vfs.createFile(f.p, f.uid, 0, f.mode)
		ino.Size = 4096
	}
	k.initProc = k.newProcess(0, Cred{}, "init", "/usr/bin/sh", nil, nil)
	return k
}

// Register attaches a tracer; all subsequent events are delivered to it.
func (k *Kernel) Register(t Tracer) { k.tracers = append(k.tracers, t) }

// Unregister detaches a tracer.
func (k *Kernel) Unregister(t Tracer) {
	out := k.tracers[:0]
	for _, x := range k.tracers {
		if x != t {
			out = append(out, x)
		}
	}
	k.tracers = out
}

// Now returns the kernel clock, advancing it one tick per call so that
// every event has a distinct timestamp (the volatile data the
// generalization stage must discard).
func (k *Kernel) Now() time.Time {
	k.clock = k.clock.Add(k.tick)
	return k.clock
}

func (k *Kernel) nextSeq() uint64 {
	k.seq++
	return k.seq
}

func (k *Kernel) newProcess(ppid int, cred Cred, comm, exe string, argv, env []string) *Process {
	p := &Process{
		PID:    k.nextPID,
		PPID:   ppid,
		Cred:   cred,
		Comm:   comm,
		Exe:    exe,
		Argv:   argv,
		Env:    env,
		fds:    make(map[int]*filDesc),
		nextFD: 3, // 0,1,2 reserved for std streams
		Alive:  true,
	}
	k.nextPID++
	k.procs[p.PID] = p
	return p
}

// Process returns the task with the given pid, or nil.
func (k *Kernel) Process(pid int) *Process { return k.procs[pid] }

// Lookup resolves a path in the VFS (exported for recorder tests).
func (k *Kernel) Lookup(p string) (*Inode, bool) { return k.vfs.lookup(p) }

// MkFile creates a file directly (staging-directory setup), owned by
// the given uid with the given mode, and returns its inode.
func (k *Kernel) MkFile(path string, uid int, mode uint32) *Inode {
	ino := k.vfs.createFile(path, uid, 0, mode)
	ino.Size = 12
	return ino
}

// MkDir creates a directory directly (staging setup).
func (k *Kernel) MkDir(path string, uid int, mode uint32) *Inode {
	return k.vfs.mkdir(path, uid, 0, mode)
}

// emitAudit delivers (or defers, under vfork suspension) an audit record.
func (k *Kernel) emitAudit(p *Process, syscall string, args []string, ret int64, errno Errno, paths []PathRecord) {
	ev := AuditEvent{
		Seq:     k.nextSeq(),
		Time:    k.Now(),
		Syscall: syscall,
		Args:    args,
		Exit:    ret,
		Success: errno == OK,
		PID:     p.PID,
		PPID:    p.PPID,
		UID:     p.Cred.UID,
		EUID:    p.Cred.EUID,
		GID:     p.Cred.GID,
		EGID:    p.Cred.EGID,
		Comm:    p.Comm,
		Exe:     p.Exe,
		Paths:   paths,
	}
	if p.vforkPending != nil || p.suspendedByVfork() {
		p.vforkPending = append(p.vforkPending, ev)
		return
	}
	for _, t := range k.tracers {
		t.Audit(ev)
	}
}

// suspendedByVfork reports whether p is a vfork parent still waiting on
// its child: its records must queue behind the child's.
func (p *Process) suspendedByVfork() bool { return p.vforkParent != nil }

// flushVfork releases a parent's deferred audit records after the vfork
// child exits.
func (k *Kernel) flushVfork(parent *Process) {
	pend := parent.vforkPending
	parent.vforkPending = nil
	parent.vforkParent = nil
	for _, ev := range pend {
		for _, t := range k.tracers {
			t.Audit(ev)
		}
	}
}

// emitLibc delivers a libc interposition record.
func (k *Kernel) emitLibc(p *Process, call string, args []string, ret int64, errno Errno) {
	if p.noLibc {
		return
	}
	ev := LibcEvent{
		Seq:     k.nextSeq(),
		Time:    k.Now(),
		Call:    call,
		Args:    args,
		Ret:     ret,
		Errno:   errno,
		PID:     p.PID,
		Comm:    p.Comm,
		Exe:     p.Exe,
		Environ: p.Env,
	}
	for _, t := range k.tracers {
		t.Libc(ev)
	}
}

// emitLSM delivers a security-hook record.
func (k *Kernel) emitLSM(p *Process, hook HookKind, access string, ino *Inode, pathName string, allowed bool, detail string) {
	ev := LSMEvent{
		Seq:     k.nextSeq(),
		Time:    k.Now(),
		Hook:    hook,
		Access:  access,
		PID:     p.PID,
		Cred:    p.Cred,
		Comm:    p.Comm,
		Path:    pathName,
		Allowed: allowed,
		Detail:  detail,
	}
	if ino != nil {
		ev.Inode = ino.ID
		ev.ObjType = ino.Type.String()
	}
	for _, t := range k.tracers {
		t.LSM(ev)
	}
}

// emitLSM2 delivers a security-hook record with a secondary object.
func (k *Kernel) emitLSM2(p *Process, hook HookKind, ino *Inode, pathName string, aux *Inode, auxPath string, allowed bool, detail string) {
	ev := LSMEvent{
		Seq:     k.nextSeq(),
		Time:    k.Now(),
		Hook:    hook,
		PID:     p.PID,
		Cred:    p.Cred,
		Comm:    p.Comm,
		Path:    pathName,
		AuxPath: auxPath,
		Allowed: allowed,
		Detail:  detail,
	}
	if ino != nil {
		ev.Inode = ino.ID
		ev.ObjType = ino.Type.String()
	}
	if aux != nil {
		ev.AuxInode = aux.ID
	}
	for _, t := range k.tracers {
		t.LSM(ev)
	}
}

// mayWrite checks the classic owner/other write permission bit for the
// process's effective uid (root passes everything).
func mayWrite(c Cred, ino *Inode) bool {
	if c.EUID == 0 {
		return true
	}
	if ino.UID == c.EUID {
		return ino.Mode&0o200 != 0
	}
	return ino.Mode&0o002 != 0
}

func mayRead(c Cred, ino *Inode) bool {
	if c.EUID == 0 {
		return true
	}
	if ino.UID == c.EUID {
		return ino.Mode&0o400 != 0
	}
	return ino.Mode&0o004 != 0
}

// Launch simulates a shell starting a benchmark executable: fork from
// init, execve the program (opening the loader, libc and the program
// file), leaving the new process ready to run benchmark operations.
// This is the "boilerplate provenance" that background programs share
// with foreground programs.
func (k *Kernel) Launch(exe string, argv []string, cred Cred) (*Process, error) {
	parent := k.initProc
	child := k.newProcess(parent.PID, cred, comm(exe), parent.Exe, argv, defaultEnv())
	k.emitLSM(child, HookTaskCreate, "", nil, "", true, "fork")
	k.emitAudit(parent, "fork", nil, int64(child.PID), OK, nil)
	k.emitLibc(parent, "fork", nil, int64(child.PID), OK)
	if err := k.doExecve(child, exe, argv); err != OK {
		return nil, fmt.Errorf("oskernel: launch %s: %s", exe, err.Error())
	}
	return child, nil
}

// doExecve performs the execve bookkeeping and event stream shared by
// Launch and the Execve syscall: check + swap the image, then open the
// loader/libc (the startup accesses every recorder sees).
func (k *Kernel) doExecve(p *Process, exe string, argv []string) Errno {
	ino, ok := k.vfs.lookup(exe)
	if !ok {
		k.emitAudit(p, "execve", []string{exe}, -1, ENOENT, nil)
		k.emitLibc(p, "execve", []string{exe}, -1, ENOENT)
		return ENOENT
	}
	k.emitLSM(p, HookBprmCheck, "exec", ino, exe, true, "")
	p.Exe = exe
	p.Comm = comm(exe)
	p.Argv = argv
	k.emitAudit(p, "execve", append([]string{exe}, argv...), 0, OK, []PathRecord{{Name: exe, Inode: ino.ID, Mode: ino.Mode}})
	k.emitLibc(p, "execve", append([]string{exe}, argv...), 0, OK)
	// Loader activity: the dynamic linker maps ld.so.cache, libc, and
	// the executable itself. Audit reports these as open+read+mmap;
	// they make SPADE's execve benchmark graph large (Section 4.2).
	for _, lib := range []string{"/etc/ld.so.cache", "/lib/ld-linux.so", "/lib/libc.so.6"} {
		lino, _ := k.vfs.lookup(lib)
		k.emitLSM(lino2proc(p), HookFileOpen, "read", lino, lib, true, "")
		k.emitAudit(p, "open", []string{lib, "O_RDONLY"}, 3, OK, []PathRecord{{Name: lib, Inode: lino.ID, Mode: lino.Mode}})
		k.emitAudit(p, "mmap", []string{lib}, 0, OK, []PathRecord{{Name: lib, Inode: lino.ID, Mode: lino.Mode}})
		k.emitLSM(p, HookFilePermission, "read", lino, lib, true, "")
	}
	return OK
}

func lino2proc(p *Process) *Process { return p }

func comm(exe string) string {
	for i := len(exe) - 1; i >= 0; i-- {
		if exe[i] == '/' {
			return exe[i+1:]
		}
	}
	return exe
}

func defaultEnv() []string {
	return []string{
		"PATH=/usr/bin:/bin",
		"HOME=/root",
		"LANG=C.UTF-8",
		"PWD=/stage",
		"SHELL=/usr/bin/sh",
		"TERM=xterm",
		"USER=bench",
		"LOGNAME=bench",
		"OPUS_INTERPOSE=1",
		"LD_PRELOAD=libopusinterpose.so",
	}
}

// fdString renders an fd for audit args.
func fdString(fd int) string { return strconv.Itoa(fd) }

// installFD places a description into the process table at the next
// free slot and returns the fd number.
func (p *Process) installFD(d *filDesc) int {
	fd := p.nextFD
	p.nextFD++
	d.refs++
	p.fds[fd] = d
	return fd
}

// FD returns the inode behind an open descriptor (for tests).
func (p *Process) FD(fd int) (*Inode, bool) {
	d, ok := p.fds[fd]
	if !ok {
		return nil, false
	}
	return d.inode, true
}
