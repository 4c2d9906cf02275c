//go:build !logcrash

package cluster

// CrashInjecting reports whether the log crash-injection shim is
// compiled in. False in default builds: every crashCut call sits
// behind an `if CrashInjecting` constant branch and compiles away
// entirely.
const CrashInjecting = false

// crashCut is the no-op stand-in for the crash injector in default
// builds.
func crashCut(CrashSite, int) (int, bool) { return 0, false }
