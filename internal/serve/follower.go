package serve

// Follower store mode: a persistent Store whose contents arrive over the
// replication plane (internal/repl) instead of through local writes. The
// store opens its engine as usual — a restart re-serves everything durably
// applied so far — and attaches a repl.Follower that replays the primary's
// durable frame stream into it. Every read path (Lookup, Contains, scans,
// metrics) works unchanged; every write path is refused, because a
// follower that accepted local writes would silently fork from its
// primary. Writes go to the primary; the follower converges to it.

import (
	"errors"
	"fmt"
	"sync"

	"learnedindex/internal/core"
	"learnedindex/internal/repl"
)

// ErrFollowerStore is returned by the error-returning write paths of a
// follower store (InsertDurable, InsertDurableString, Sync): the store is
// read-only because its contents are owned by the replication stream.
var ErrFollowerStore = errors.New("serve: follower store is read-only; writes go to the primary")

// replState carries a Store's replication attachments. primary is set by
// ServeReplication, follower by OpenFollower; Close severs both before the
// engine goes down.
type replState struct {
	mu       sync.Mutex
	primary  *repl.Primary
	follower *repl.Follower
}

// OpenFollower opens a follower store: a persistent uint64-keyed Store
// rooted at opt.Dir whose contents replicate from the primary at
// fopt.Addr. The returned store serves reads immediately (everything
// durable from prior sessions) and converges toward the primary as frames
// apply; it keeps serving — and keeps redialing with backoff — while the
// primary is unreachable. All write methods are refused (see
// ErrFollowerStore). Close stops replication, then closes the engine.
func OpenFollower(cfg core.Config, opt Options, fopt repl.FollowerOptions) (*Store, error) {
	return openFollower(false, cfg, opt, fopt)
}

// OpenFollowerString is OpenFollower in the string key mode; the primary
// must be string-keyed too (the replication handshake enforces it).
func OpenFollowerString(cfg core.Config, opt Options, fopt repl.FollowerOptions) (*Store, error) {
	return openFollower(true, cfg, opt, fopt)
}

// openFollower is OpenFollower and OpenFollowerString. As on any
// persistent store, the engine drains itself: the keys frames bring are
// served once opt.MergeThreshold of them are pending, and the applier
// bulk-loads each snapshot as one segment at its end. Flush and Close still
// make every applied key served.
func openFollower(strKeys bool, cfg core.Config, opt Options, fopt repl.FollowerOptions) (*Store, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("serve: a follower store needs Options.Dir (its replica is durable)")
	}
	s, err := openEngine(strKeys, cfg, opt)
	if err != nil {
		return nil, err
	}
	fol, err := repl.NewFollower(s.eng, fopt)
	if err != nil {
		s.eng.Close()
		return nil, err
	}
	s.repl.follower = fol
	fol.Start()
	return s, nil
}

// IsFollower reports whether this Store is a replication follower (opened
// with OpenFollower/OpenFollowerString).
func (s *Store) IsFollower() bool {
	return s.repl.follower != nil
}

// FollowerStatus returns the replication status of a follower store —
// connection state, applied/primary sequence horizons, lag, fencing epoch,
// reconnect count — and true; the zero status and false on any other store.
func (s *Store) FollowerStatus() (repl.FollowerStatus, bool) {
	if s.repl.follower == nil {
		return repl.FollowerStatus{}, false
	}
	return s.repl.follower.Status(), true
}

// RetargetPrimary points a follower store at a new primary address (manual
// failover). The live session is severed and the redial loop connects to
// addr; fencing rules still apply, so a stale primary at addr is refused.
func (s *Store) RetargetPrimary(addr string) error {
	if s.repl.follower == nil {
		return fmt.Errorf("serve: RetargetPrimary on a non-follower store")
	}
	s.repl.follower.Retarget(addr)
	return nil
}

// ServeReplication makes a persistent Store a replication primary: it
// starts shipping the engine's durable frame stream to any follower that
// connects to addr on transport t. The returned Primary reports Addr()
// (useful with a ":0" listen request) and is closed with the Store. A
// store ships to followers and serves local traffic concurrently; a
// follower store cannot also be a primary (no cascading replication).
func (s *Store) ServeReplication(t repl.Transport, addr string, popt repl.PrimaryOptions) (*repl.Primary, error) {
	if !s.persistent {
		return nil, fmt.Errorf("serve: replication needs a persistent store (Options.Dir)")
	}
	if s.repl.follower != nil {
		return nil, fmt.Errorf("serve: a follower store cannot serve replication (no cascading)")
	}
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	if s.repl.primary != nil {
		return nil, fmt.Errorf("serve: replication already serving on %s", s.repl.primary.Addr())
	}
	p, err := repl.NewPrimary(s.eng, popt)
	if err != nil {
		return nil, err
	}
	if err := p.Serve(t, addr); err != nil {
		p.Close()
		return nil, err
	}
	s.repl.primary = p
	return p, nil
}

// closeRepl severs the store's replication attachments (called by Close
// before the engine shuts down, so neither plane writes a closing engine).
func (s *Store) closeRepl() {
	s.repl.mu.Lock()
	p := s.repl.primary
	s.repl.primary = nil
	s.repl.mu.Unlock()
	if p != nil {
		p.Close()
	}
	if s.repl.follower != nil {
		s.repl.follower.Close()
	}
}
