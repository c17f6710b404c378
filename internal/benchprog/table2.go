package benchprog

// The Table 2 benchmark suite, the Section 3.1/5.2 extra programs, and
// the failure-case suite, written on the declarative instruction set
// and registered at init. TestScenarioStreamsPinned holds each
// program's kernel event streams to the ones its original closure form
// produced.

const stageFile = "/stage/test.txt"

func setupFileOp(path string) []SetupOp {
	return []SetupOp{{Kind: "file", Path: path, UID: 1000, Mode: 0o644}}
}

// target flips an instruction's target flag on.
func target(in Instr) Instr {
	in.Target = true
	return in
}

// openID is the shared background prologue: open the staged file
// read-write and bind the descriptor to slot "id".
func openID() Instr {
	return Instr{Op: "open", Path: stageFile, Flags: []string{"rdwr"}, SaveFD: "id"}
}

func table2Scenarios() []Scenario {
	oneTarget := func(name string, group int, desc string, setup []SetupOp, in Instr) Scenario {
		return Scenario{Name: name, Group: group, Desc: desc, Setup: setup, Steps: []Instr{target(in)}}
	}
	prologued := func(name string, group int, desc string, in Instr) Scenario {
		return Scenario{Name: name, Group: group, Desc: desc, Setup: setupFileOp(stageFile),
			Steps: []Instr{openID(), target(in)}}
	}
	dupScn := func(name string, in Instr) Scenario {
		return prologued(name, 1, "duplicate a file descriptor", in)
	}
	linkScn := func(name string, in Instr) Scenario {
		return Scenario{Name: name, Group: 1, Desc: "create a link to an existing file",
			Setup: setupFileOp(stageFile), Steps: []Instr{target(in)}}
	}
	rwScn := func(name string, in Instr) Scenario {
		return prologued(name, 1, "read or write an open file", in)
	}
	chmodScn := func(name string, in Instr) Scenario {
		return oneTarget(name, 3, "change file mode", setupFileOp(stageFile), in)
	}
	chownScn := func(name string, in Instr) Scenario {
		s := oneTarget(name, 3, "change file ownership (run as root)", setupFileOp(stageFile), in)
		s.Cred = CredRoot
		return s
	}
	setidScn := func(name string, in Instr) Scenario {
		s := oneTarget(name, 3, "change process credentials (run as root)", nil, in)
		s.Cred = CredRoot
		return s
	}
	return []Scenario{
		// ---- Group 1: files ------------------------------------------------
		{
			Name: "close", Group: 1, Desc: "close an open descriptor",
			Setup: setupFileOp(stageFile),
			Steps: []Instr{openID(), target(Instr{Op: "close", FD: "id"})},
		},
		oneTarget("creat", 1, "create a new file", nil, Instr{Op: "creat", Path: "/stage/new.txt"}),
		dupScn("dup", Instr{Op: "dup", FD: "id"}),
		dupScn("dup2", Instr{Op: "dup2", FD: "id", NewFD: 9}),
		dupScn("dup3", Instr{Op: "dup3", FD: "id", NewFD: 9}),
		linkScn("link", Instr{Op: "link", Path: stageFile, Path2: "/stage/hard.txt"}),
		linkScn("linkat", Instr{Op: "linkat", Path: stageFile, Path2: "/stage/hard.txt"}),
		linkScn("symlink", Instr{Op: "symlink", Path: stageFile, Path2: "/stage/soft.txt"}),
		linkScn("symlinkat", Instr{Op: "symlinkat", Path: stageFile, Path2: "/stage/soft.txt"}),
		oneTarget("mknod", 1, "create a device node", nil, Instr{Op: "mknod", Path: "/stage/node", Mode: 0o644}),
		oneTarget("mknodat", 1, "create a device node (at)", nil, Instr{Op: "mknodat", Path: "/stage/node", Mode: 0o644}),
		oneTarget("open", 1, "open an existing file", setupFileOp(stageFile),
			Instr{Op: "open", Path: stageFile, Flags: []string{"rdwr"}}),
		oneTarget("openat", 1, "open an existing file (at)", setupFileOp(stageFile),
			Instr{Op: "openat", Path: stageFile, Flags: []string{"rdwr"}}),
		rwScn("read", Instr{Op: "read", FD: "id", N: 8}),
		rwScn("pread", Instr{Op: "pread", FD: "id", N: 8}),
		rwScn("write", Instr{Op: "write", FD: "id", N: 8}),
		rwScn("pwrite", Instr{Op: "pwrite", FD: "id", N: 8}),
		oneTarget("rename", 1, "rename a file", setupFileOp(stageFile),
			Instr{Op: "rename", Path: stageFile, Path2: "/stage/renamed.txt"}),
		oneTarget("renameat", 1, "rename a file (at)", setupFileOp(stageFile),
			Instr{Op: "renameat", Path: stageFile, Path2: "/stage/renamed.txt"}),
		oneTarget("truncate", 1, "truncate by path", setupFileOp(stageFile),
			Instr{Op: "truncate", Path: stageFile, Len: 4}),
		{
			Name: "ftruncate", Group: 1, Desc: "truncate by descriptor",
			Setup: setupFileOp(stageFile),
			Steps: []Instr{openID(), target(Instr{Op: "ftruncate", FD: "id", Len: 4})},
		},
		oneTarget("unlink", 1, "remove a file", setupFileOp(stageFile), Instr{Op: "unlink", Path: stageFile}),
		oneTarget("unlinkat", 1, "remove a file (at)", setupFileOp(stageFile), Instr{Op: "unlinkat", Path: stageFile}),

		// ---- Group 2: processes --------------------------------------------
		oneTarget("clone", 2, "spawn a thread-like child via raw clone", nil, Instr{Op: "clone"}),
		oneTarget("execve", 2, "replace the process image", nil,
			Instr{Op: "execve", Exe: "/usr/bin/helper", Argv: []string{"helper"}}),
		oneTarget("exit", 2, "terminate normally (implicit in bg too)", nil, Instr{Op: "exit"}),
		{
			Name: "fork", Group: 2, Desc: "fork a child that exits",
			Steps: []Instr{target(Instr{Op: "fork"}), target(Instr{Op: "exit", Proc: "child"})},
		},
		{
			Name: "kill", Group: 2, Desc: "kill a forked child",
			Steps: []Instr{{Op: "fork"}, target(Instr{Op: "kill", PIDOf: "child", Sig: 9})},
		},
		{
			Name: "vfork", Group: 2, Desc: "vfork a child; parent suspends until child exit",
			Steps: []Instr{target(Instr{Op: "vfork"}), target(Instr{Op: "exit", Proc: "child"})},
		},

		// ---- Group 3: permissions ------------------------------------------
		chmodScn("chmod", Instr{Op: "chmod", Path: stageFile, Mode: 0o600}),
		{
			Name: "fchmod", Group: 3, Desc: "chmod by descriptor",
			Setup: setupFileOp(stageFile),
			Steps: []Instr{openID(), target(Instr{Op: "fchmod", FD: "id", Mode: 0o600})},
		},
		chmodScn("fchmodat", Instr{Op: "fchmodat", Path: stageFile, Mode: 0o600}),
		chownScn("chown", Instr{Op: "chown", Path: stageFile, UID: 1001, GID: 1001}),
		{
			Name: "fchown", Group: 3, Desc: "chown by descriptor (run as root)",
			Setup: setupFileOp(stageFile), Cred: CredRoot,
			Steps: []Instr{openID(), target(Instr{Op: "fchown", FD: "id", UID: 1001, GID: 1001})},
		},
		chownScn("fchownat", Instr{Op: "fchownat", Path: stageFile, UID: 1001, GID: 1001}),
		setidScn("setgid", Instr{Op: "setgid", GID: 1001}),
		setidScn("setregid", Instr{Op: "setregid", GID: 1001, EGID: 1001}),
		// setresgid sets the group id to its *current* value: the kernel
		// accepts it but nothing changes, so change-triggered recorders
		// stay silent (the paper's SC observation for SPADE).
		setidScn("setresgid", Instr{Op: "setresgid"}),
		setidScn("setuid", Instr{Op: "setuid", UID: 1001}),
		setidScn("setreuid", Instr{Op: "setreuid", UID: 1001, EUID: 1001}),
		// setresuid performs an actual change of user id, so SPADE's
		// attribute-change monitoring notices it (ok (SC) in Table 2).
		setidScn("setresuid", Instr{Op: "setresuid", UID: 1001, EUID: 1001, SUID: 1001}),

		// ---- Group 4: pipes ------------------------------------------------
		oneTarget("pipe", 4, "create a pipe", nil, Instr{Op: "pipe"}),
		oneTarget("pipe2", 4, "create a pipe with flags", nil, Instr{Op: "pipe2"}),
		{
			Name: "tee", Group: 4, Desc: "duplicate data between two pipes",
			Steps: []Instr{
				{Op: "pipe", SaveFD: "in_r", SaveFD2: "in_w"},
				{Op: "pipe", SaveFD: "out_r", SaveFD2: "out_w"},
				{Op: "write", FD: "in_w", N: 8},
				target(Instr{Op: "tee", FD: "in_r", FD2: "out_w", N: 8}),
			},
		},
	}
}

// FailedRenameScenario is the Section 3.1 "Alice" benchmark as data:
// an unprivileged user attempts to overwrite /etc/passwd by renaming
// another file; the call must fail.
func FailedRenameScenario() Scenario {
	return Scenario{
		Name: "rename-failed", Group: 1,
		Desc:  "unprivileged rename onto /etc/passwd (EACCES expected)",
		Setup: setupFileOp("/stage/evil.txt"),
		Steps: []Instr{target(Instr{Op: "rename", Path: "/stage/evil.txt", Path2: "/etc/passwd", Errno: ErrnoAny})},
	}
}

// PrivilegeEscalationScenario is the Section 3.1 "Dora" benchmark as
// data: read a sensitive file, escalate privilege (the target), then
// overwrite the file.
func PrivilegeEscalationScenario() Scenario {
	return Scenario{
		Name: "privesc", Group: 3,
		Desc:  "privilege escalation step inside a larger activity",
		Cred:  CredRoot,
		Setup: []SetupOp{{Kind: "file", Path: "/stage/secret.txt", UID: 1000, Mode: 0o644}},
		Steps: []Instr{
			{Op: "open", Path: "/stage/secret.txt", Flags: []string{"rdwr"}, SaveFD: "id"},
			{Op: "read", FD: "id", N: 16},
			// The escalation and the write it enables are both target
			// activity: anything after a credential change hangs off a
			// new task version, so leaving it in the background would
			// break ProvMark's monotonic-containment assumption (the
			// same limitation the paper notes for exit/kill).
			target(Instr{Op: "setuid"}),
			target(Instr{Op: "write", FD: "id", N: 16}),
		},
	}
}

func failureScenarios() []Scenario {
	return []Scenario{
		{
			Name: "open-enoent", Group: 1,
			Desc:  "open a nonexistent file (fails before any inode exists)",
			Steps: []Instr{target(Instr{Op: "open", Path: "/stage/does-not-exist", Errno: "ENOENT"})},
		},
		{
			Name: "open-eacces", Group: 1,
			Desc:  "open /etc/passwd for writing as an unprivileged user",
			Steps: []Instr{target(Instr{Op: "open", Path: "/etc/passwd", Flags: []string{"wronly"}, Errno: "EACCES"})},
		},
		{
			Name: "rename-eacces", Group: 1,
			Desc:  "rename onto /etc/passwd as an unprivileged user",
			Setup: setupFileOp("/stage/evil.txt"),
			Steps: []Instr{target(Instr{Op: "rename", Path: "/stage/evil.txt", Path2: "/etc/passwd", Errno: "EACCES"})},
		},
		{
			Name: "unlink-eacces", Group: 1,
			Desc:  "unlink /etc/passwd as an unprivileged user",
			Steps: []Instr{target(Instr{Op: "unlink", Path: "/etc/passwd", Errno: "EACCES"})},
		},
		{
			Name: "link-eexist", Group: 1,
			Desc: "hard link onto an existing name (fails before any hook)",
			Setup: []SetupOp{
				{Kind: "file", Path: "/stage/a.txt", UID: 1000, Mode: 0o644},
				{Kind: "file", Path: "/stage/b.txt", UID: 1000, Mode: 0o644},
			},
			Steps: []Instr{target(Instr{Op: "link", Path: "/stage/a.txt", Path2: "/stage/b.txt", Errno: "EEXIST"})},
		},
		{
			Name: "truncate-eacces", Group: 1,
			Desc:  "truncate /etc/passwd as an unprivileged user",
			Steps: []Instr{target(Instr{Op: "truncate", Path: "/etc/passwd", Errno: "EACCES"})},
		},
		{
			Name: "chmod-eperm", Group: 3,
			Desc:  "chmod a root-owned file as an unprivileged user",
			Steps: []Instr{target(Instr{Op: "chmod", Path: "/etc/passwd", Mode: 0o777, Errno: "EPERM"})},
		},
		{
			Name: "chown-eperm", Group: 3,
			Desc:  "chown as an unprivileged user",
			Setup: setupFileOp("/stage/mine.txt"),
			Steps: []Instr{target(Instr{Op: "chown", Path: "/stage/mine.txt", Errno: "EPERM"})},
		},
		{
			Name: "setuid-eperm", Group: 3,
			Desc:  "setuid(0) as an unprivileged user",
			Steps: []Instr{target(Instr{Op: "setuid", Errno: "EPERM"})},
		},
		{
			Name: "kill-eperm", Group: 2,
			Desc:  "signal init as an unprivileged user",
			Steps: []Instr{target(Instr{Op: "kill", PID: 1, Sig: 9, Errno: "EPERM"})},
		},
	}
}

func init() {
	for _, s := range table2Scenarios() {
		mustRegister(s, KindTable2)
	}
	mustRegister(FailedRenameScenario(), KindExtra)
	mustRegister(PrivilegeEscalationScenario(), KindExtra)
	mustRegister(RepeatedReadsScenario(8), KindExtra)
	for _, n := range []int{1, 2, 4, 8} {
		mustRegister(ScaleScenario(n), KindExtra)
	}
	for _, s := range failureScenarios() {
		mustRegister(s, KindFailure)
	}
}

// ScaleProgram builds the scalability benchmark of Section 5.2,
// compiled from its scenario form: the target is a create-then-unlink
// pair repeated `repeat` times (scale1, scale2, scale4, scale8 in
// Figures 8–10).
func ScaleProgram(repeat int) Program {
	return ScaleScenario(repeat).MustCompile()
}

// FailedRename is the Section 3.1 "Alice" benchmark, compiled from its
// scenario form.
func FailedRename() Program {
	return FailedRenameScenario().MustCompile()
}

// RepeatedReads is the Section 3.1 "Bob" benchmark used to probe
// SPADE's IORuns filter, compiled from its scenario form: the target
// performs `count` consecutive reads of the same file.
func RepeatedReads(count int) Program {
	return RepeatedReadsScenario(count).MustCompile()
}

// PrivilegeEscalation is the Section 3.1 "Dora" benchmark, compiled
// from its scenario form.
func PrivilegeEscalation() Program {
	return PrivilegeEscalationScenario().MustCompile()
}
