// Package oskernel simulates the Linux substrate that the three
// provenance recorders observe. It maintains a process table, a virtual
// filesystem (inodes, paths, hard and symbolic links, pipes), per-process
// file-descriptor tables and credentials, and executes the syscall
// families that the paper benchmarks (Table 1).
//
// Every syscall is visible through up to three taps, mirroring Figure 2
// of the paper:
//
//   - the audit tap emits one record per syscall at syscall *exit*
//     (Linux Audit semantics: SPADE's reporter consumes this; the vfork
//     suspension quirk of Section 4.2 is reproduced — the parent's vfork
//     record is emitted only after the child exits);
//   - the libc tap emits one record per intercepted C-library call,
//     including failed calls (OPUS's interposition layer consumes this;
//     raw clone(2) does not pass through libc interposition);
//   - the LSM tap emits security-hook records (CamFlow consumes this;
//     hooks fire for permission-relevant operations, including denied
//     ones, but not for fd-table-only operations such as dup).
package oskernel

import "time"

// Errno models the kernel error numbers the simulator distinguishes.
type Errno int

// Error numbers used by the simulated syscalls.
const (
	OK      Errno = 0
	EPERM   Errno = 1
	ENOENT  Errno = 2
	ESRCH   Errno = 3
	EBADF   Errno = 9
	EACCES  Errno = 13
	EEXIST  Errno = 17
	ENOTDIR Errno = 20
	EISDIR  Errno = 21
	EINVAL  Errno = 22
	ESPIPE  Errno = 29
)

func (e Errno) Error() string {
	switch e {
	case OK:
		return "ok"
	case EPERM:
		return "EPERM"
	case ENOENT:
		return "ENOENT"
	case ESRCH:
		return "ESRCH"
	case EBADF:
		return "EBADF"
	case EACCES:
		return "EACCES"
	case EEXIST:
		return "EEXIST"
	case ENOTDIR:
		return "ENOTDIR"
	case EISDIR:
		return "EISDIR"
	case EINVAL:
		return "EINVAL"
	case ESPIPE:
		return "ESPIPE"
	}
	return "E?"
}

// PathRecord is one resolved path attached to an audit record (the
// PATH= lines of Linux Audit).
type PathRecord struct {
	Name  string
	Inode uint64
	Mode  uint32
}

// AuditEvent is a syscall-exit record as the audit service reports it.
type AuditEvent struct {
	Seq     uint64
	Time    time.Time
	Syscall string
	Args    []string
	Exit    int64
	Success bool
	PID     int
	PPID    int
	UID     int
	EUID    int
	GID     int
	EGID    int
	Comm    string
	Exe     string
	Paths   []PathRecord
}

// LibcEvent is one intercepted C-library call.
type LibcEvent struct {
	Seq     uint64
	Time    time.Time
	Call    string
	Args    []string
	Ret     int64
	Errno   Errno
	PID     int
	Comm    string
	Exe     string
	Environ []string
}

// HookKind names an LSM security hook.
type HookKind string

// The hook vocabulary emitted by the simulator. It covers the hooks
// CamFlow 0.4.5 attaches to plus a few it does not (inode_symlink,
// inode_mknod, pipe_create) so that recorder-side coverage gaps stay in
// the recorder, where they belong.
const (
	HookFileOpen       HookKind = "file_open"
	HookFilePermission HookKind = "file_permission" // read or write, see Access
	HookInodeCreate    HookKind = "inode_create"
	HookInodeLink      HookKind = "inode_link"
	HookInodeSymlink   HookKind = "inode_symlink"
	HookInodeMknod     HookKind = "inode_mknod"
	HookInodeRename    HookKind = "inode_rename"
	HookInodeUnlink    HookKind = "inode_unlink"
	HookInodeSetattr   HookKind = "inode_setattr" // chmod/chown/truncate
	HookTaskFixSetuid  HookKind = "task_fix_setuid"
	HookTaskFixSetgid  HookKind = "task_fix_setgid"
	HookBprmCheck      HookKind = "bprm_check_security" // execve
	HookTaskCreate     HookKind = "task_create"         // fork/vfork/clone
	HookTaskKill       HookKind = "task_kill"
	HookTaskExit       HookKind = "task_exit"
	HookPipeCreate     HookKind = "pipe_create"
	HookPipeSplice     HookKind = "pipe_splice" // tee
)

// LSMEvent is one security-hook firing.
type LSMEvent struct {
	Seq      uint64
	Time     time.Time
	Hook     HookKind
	Access   string // "read"/"write"/"exec"/"" (file_permission detail)
	PID      int
	Cred     Cred
	Comm     string
	Inode    uint64
	Path     string
	ObjType  string // "file", "dir", "pipe", "device", "process"
	Allowed  bool
	AuxInode uint64 // second object (rename target dir, link target, child pid)
	AuxPath  string
	Detail   string // e.g. new mode/owner for setattr, new uid for setuid
}

// Tracer receives kernel events. Recorders register one tracer each.
type Tracer interface {
	Audit(AuditEvent)
	Libc(LibcEvent)
	LSM(LSMEvent)
}

// TapBuffer is a Tracer that stores every event, used by recorders and
// tests that want to replay a run.
type TapBuffer struct {
	AuditEvents []AuditEvent
	LibcEvents  []LibcEvent
	LSMEvents   []LSMEvent
}

var _ Tracer = (*TapBuffer)(nil)

// Audit implements Tracer.
func (t *TapBuffer) Audit(e AuditEvent) { t.AuditEvents = append(t.AuditEvents, e) }

// Libc implements Tracer.
func (t *TapBuffer) Libc(e LibcEvent) { t.LibcEvents = append(t.LibcEvents, e) }

// LSM implements Tracer.
func (t *TapBuffer) LSM(e LSMEvent) { t.LSMEvents = append(t.LSMEvents, e) }
