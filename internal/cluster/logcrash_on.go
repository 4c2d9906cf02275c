//go:build logcrash

package cluster

import "sync/atomic"

// CrashInjecting reports whether the log crash-injection shim is
// compiled in. True only under the "logcrash" build tag.
const CrashInjecting = true

// CrashSiteEpoch is LogEpoch's single flush of insert record(s) plus
// commit marker.
const CrashSiteEpoch = crashSiteEpoch

// CrashSiteFence is AppendFence's flush of fence plus commit marker.
const CrashSiteFence = crashSiteFence

// CrashProbe is a crash injector: it receives the flush site and the
// byte length of the composed epoch buffer, and returns how many bytes
// reach the file before the simulated kill. Return ok=false to let the
// flush complete normally. After a cut the ShardLog behaves like a
// killed process: the partial bytes are synced, and every further
// operation returns ErrCrashed until the log is reopened.
type CrashProbe func(site CrashSite, n int) (cut int, ok bool)

// crashInjector is the installed probe; nil means injection is inert.
var crashInjector atomic.Pointer[CrashProbe]

// SetCrashInjector installs p as the process-wide crash injector;
// p == nil uninstalls. Install before the flush under test and clear
// after — installation is atomic but not synchronised with in-flight
// flushes.
func SetCrashInjector(p CrashProbe) {
	if p == nil {
		crashInjector.Store(nil)
		return
	}
	crashInjector.Store(&p)
}

// ClearCrashInjector uninstalls the crash injector.
func ClearCrashInjector() { crashInjector.Store(nil) }

// crashCut consults the installed injector, defaulting to no cut.
func crashCut(site CrashSite, n int) (int, bool) {
	if p := crashInjector.Load(); p != nil {
		return (*p)(site, n)
	}
	return 0, false
}
