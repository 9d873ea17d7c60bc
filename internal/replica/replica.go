// Package replica puts N instances behind one LOID as a primary/backup
// group. The primary executes dynamic functions and synchronously ships the
// resulting object state (objstate encoding) to every backup; backups refuse
// dynamic traffic with rpc.ErrNotPrimary but serve the dcdo.* control plane,
// so version probes and descriptor evolution reach every member directly.
//
// Group membership and leadership are versioned by an epoch. Every shipped
// snapshot carries the shipper's epoch; a member holding a higher epoch
// rejects it with rpc.ErrFenced, which makes a deposed primary demote itself
// the moment it tries to act for the group — the classic fencing token, on
// the object plane rather than the lock plane.
package replica

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"godcdo/internal/core"
	"godcdo/internal/naming"
	"godcdo/internal/objstate"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/wire"
)

// Role is a replica's position in its group.
type Role int

const (
	// RoleBackup replicas apply shipped state and refuse dynamic calls.
	RoleBackup Role = iota
	// RolePrimary replicas execute dynamic calls and ship state to backups.
	RolePrimary
)

// String implements fmt.Stringer.
func (r Role) String() string {
	if r == RolePrimary {
		return "primary"
	}
	return "backup"
}

// Replication methods, hosted on the replica's own LOID beside the object's
// dynamic and control methods. The "repl." prefix is reserved the same way
// core.ControlPrefix is.
const (
	// ReplPrefix marks replication-plane methods.
	ReplPrefix = "repl."
	// MethodApply ships a state snapshot: epoch, sequence, objstate bytes.
	MethodApply = ReplPrefix + "apply"
	// MethodPromote makes the receiver primary at a new epoch with a new
	// backup list.
	MethodPromote = ReplPrefix + "promote"
	// MethodDemote makes the receiver a backup at a new epoch.
	MethodDemote = ReplPrefix + "demote"
	// MethodStatus reports role, epoch, applied sequence, and version.
	MethodStatus = ReplPrefix + "status"
	// MethodSyncTo (primary-only) ships a full state snapshot to one named
	// endpoint: how a freshly hosted backup is seeded when a group expands.
	MethodSyncTo = ReplPrefix + "syncto"
)

// Inner is the object a Replica wraps: context-aware invocation plus the
// serialisable state container replication ships. core.DCDO satisfies it.
type Inner interface {
	InvokeMethodCtx(ctx context.Context, method string, args []byte) ([]byte, error)
	State() *objstate.State
}

// Replica wraps one group member. It implements rpc.Object and
// rpc.ContextAwareObject, so it is hosted on a dispatcher exactly where the
// bare object would be; degree-1 deployments simply never construct one,
// which is how replication costs nothing when it is off.
type Replica struct {
	loid   naming.LOID
	inner  Inner
	dialer transport.Dialer

	// ShipTimeout bounds each state shipment to one backup. Zero means 2 s.
	ShipTimeout time.Duration

	mu      sync.Mutex
	role    Role
	epoch   uint64
	seq     uint64   // primary: last shipped; backup: last applied
	backups []string // primary only: endpoints state ships to
	shipGen uint64   // state generation as of the last shipment

	// shipMu serialises snapshot encoding and shipment so sequence numbers
	// observed by backups are in snapshot order.
	shipMu sync.Mutex
}

var (
	_ rpc.Object             = (*Replica)(nil)
	_ rpc.ContextAwareObject = (*Replica)(nil)
)

// New returns a replica for loid wrapping inner. Role, epoch, and the
// backup list come from the caller (the group bootstrapper): the initial
// primary starts at epoch 1 with its peers as backups; initial backups
// start at epoch 1 with no peer list.
func New(loid naming.LOID, inner Inner, dialer transport.Dialer, role Role, epoch uint64, backups []string) *Replica {
	return &Replica{
		loid:    loid,
		inner:   inner,
		dialer:  dialer,
		role:    role,
		epoch:   epoch,
		backups: append([]string(nil), backups...),
	}
}

// Status is a replica's self-report.
type Status struct {
	Role  Role
	Epoch uint64
	Seq   uint64
	// VersionSegs is the wrapped object's version (version.ID segments),
	// captured via the control plane.
	VersionSegs []uint64
}

// Role returns the replica's current role.
func (r *Replica) CurrentRole() Role {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role
}

// Epoch returns the replica's current group epoch.
func (r *Replica) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// InvokeMethod implements rpc.Object.
func (r *Replica) InvokeMethod(method string, args []byte) ([]byte, error) {
	return r.InvokeMethodCtx(context.Background(), method, args)
}

// InvokeMethodCtx implements rpc.ContextAwareObject: replication-plane
// methods are handled here, control-plane methods pass through on any role
// (probes and evolution must reach backups), and dynamic methods execute on
// the primary only, followed by a synchronous state shipment when the call
// mutated state.
func (r *Replica) InvokeMethodCtx(ctx context.Context, method string, args []byte) ([]byte, error) {
	if strings.HasPrefix(method, ReplPrefix) {
		return r.invokeRepl(ctx, method, args)
	}
	if strings.HasPrefix(method, core.ControlPrefix) {
		return r.inner.InvokeMethodCtx(ctx, method, args)
	}
	r.mu.Lock()
	if r.role != RolePrimary {
		epoch := r.epoch
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %s (epoch %d)", rpc.ErrNotPrimary, r.loid, epoch)
	}
	r.mu.Unlock()
	out, err := r.inner.InvokeMethodCtx(ctx, method, args)
	if err != nil {
		return out, err
	}
	if shipErr := r.shipIfChanged(ctx); shipErr != nil {
		if errors.Is(shipErr, rpc.ErrFenced) {
			// A backup holds a newer epoch: we are deposed. The local
			// execution never committed to the group (the shipment was
			// refused), so tell the caller to re-resolve and retry against
			// the real primary.
			return nil, fmt.Errorf("%w: deposed primary for %s: %v", rpc.ErrNotPrimary, r.loid, shipErr)
		}
		// The primary is healthy but cannot commit to its group right now
		// (typically a dead backup the reconciler has not yet dropped).
		// ErrUnavailable tells the client the condition is transient and that
		// the call may have executed locally without committing: idempotent
		// invokes retry through it, non-idempotent ones surface ambiguity.
		return nil, fmt.Errorf("%w: replica %s: state shipment failed: %v", rpc.ErrUnavailable, r.loid, shipErr)
	}
	return out, nil
}

// shipIfChanged ships a state snapshot to every backup if the state
// generation moved since the last shipment. Shipments are serialised so
// backups can deduplicate by sequence number alone.
func (r *Replica) shipIfChanged(ctx context.Context) error {
	r.shipMu.Lock()
	defer r.shipMu.Unlock()

	gen := r.inner.State().Generation()
	r.mu.Lock()
	if gen == r.shipGen || r.role != RolePrimary || len(r.backups) == 0 {
		if r.role == RolePrimary {
			r.shipGen = gen
		}
		r.mu.Unlock()
		return nil
	}
	r.seq++
	seq := r.seq
	epoch := r.epoch
	// Promote and demote replace r.backups wholesale and never write into
	// it, so the slice itself is a stable snapshot.
	backups := r.backups
	r.mu.Unlock()

	shipped, err := r.ship(ctx, epoch, seq, backups)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.shipGen = shipped
	r.mu.Unlock()
	return nil
}

// syncTo ships one full-state snapshot to endpoint at the primary's current
// epoch and a fresh sequence number. It shares shipMu with shipIfChanged so
// the seeded snapshot is ordered against regular shipments; a following
// dynamic call re-ships to everyone at a later sequence, so over-shipping is
// the worst case, divergence never.
func (r *Replica) syncTo(ctx context.Context, endpoint string) error {
	r.shipMu.Lock()
	defer r.shipMu.Unlock()

	r.mu.Lock()
	if r.role != RolePrimary {
		epoch := r.epoch
		r.mu.Unlock()
		return fmt.Errorf("%w: %s (epoch %d)", rpc.ErrNotPrimary, r.loid, epoch)
	}
	r.seq++
	seq := r.seq
	epoch := r.epoch
	r.mu.Unlock()

	_, err := r.ship(ctx, epoch, seq, []string{endpoint})
	if err != nil && !errors.Is(err, rpc.ErrFenced) {
		return fmt.Errorf("sync %s: %w", r.loid, err)
	}
	return err
}

// ship encodes one MethodApply payload — epoch, seq, and the length-prefixed
// state image — straight into a pooled buffer and sends that same buffer to
// each endpoint in turn. It returns the state generation the image captures.
// The buffer goes back to the pool once the last call has returned, on every
// path; Dialer.Call must not retain a request payload past its return. A
// fenced endpoint demotes the replica and stops the round; any other failure
// is reported after every endpoint has been tried. Callers hold shipMu.
func (r *Replica) ship(ctx context.Context, epoch, seq uint64, endpoints []string) (uint64, error) {
	payload, gen := r.inner.State().AppendEncode(nil, func(_ []byte, n int) []byte {
		head := wire.UvarintLen(epoch) + wire.UvarintLen(seq) + wire.UvarintLen(uint64(n))
		buf := wire.GetBuf(head + n)[:0]
		buf = binary.AppendUvarint(buf, epoch)
		buf = binary.AppendUvarint(buf, seq)
		return binary.AppendUvarint(buf, uint64(n))
	})
	defer wire.PutBuf(payload)

	var firstErr error
	for _, endpoint := range endpoints {
		_, err := rpc.DirectCall(ctx, r.dialer, endpoint, r.loid, MethodApply, payload, r.shipTimeout())
		if errors.Is(err, rpc.ErrFenced) {
			r.demoteSelf()
			return gen, err
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("backup %s: %w", endpoint, err)
		}
	}
	return gen, firstErr
}

// demoteSelf demotes a fenced ex-primary in place.
func (r *Replica) demoteSelf() {
	r.mu.Lock()
	r.role = RoleBackup
	r.backups = nil
	r.mu.Unlock()
}

func (r *Replica) shipTimeout() time.Duration {
	if r.ShipTimeout > 0 {
		return r.ShipTimeout
	}
	return 2 * time.Second
}

// invokeRepl handles the replication plane.
func (r *Replica) invokeRepl(ctx context.Context, method string, args []byte) ([]byte, error) {
	dec := wire.NewDecoder(args)
	switch method {
	case rpc.MethodReplRead:
		// Policy-routed read: unwrap and execute locally on ANY role — the
		// one replication-plane method backups serve. The caller asserted
		// the inner method is read-only; the generation check makes a
		// violation loud instead of letting a backup silently diverge.
		inner, innerArgs, err := rpc.DecodeReadArgs(args)
		if err != nil {
			return nil, err
		}
		if strings.HasPrefix(inner, ReplPrefix) || strings.HasPrefix(inner, core.ControlPrefix) {
			return nil, fmt.Errorf("%w: %q may not ride %s", rpc.ErrBadRequest, inner, rpc.MethodReplRead)
		}
		before := r.inner.State().Generation()
		out, err := r.inner.InvokeMethodCtx(ctx, inner, innerArgs)
		if err != nil {
			return nil, err
		}
		if r.inner.State().Generation() != before {
			return nil, fmt.Errorf("replica %s: %q mutated state via %s; backup-ok reads must be read-only",
				r.loid, inner, rpc.MethodReplRead)
		}
		return out, nil

	case MethodSyncTo:
		endpoint, err := dec.String()
		if err != nil {
			return nil, fmt.Errorf("%w: endpoint: %v", rpc.ErrBadRequest, err)
		}
		return nil, r.syncTo(ctx, endpoint)
	case MethodApply:
		epoch, err := dec.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: epoch: %v", rpc.ErrBadRequest, err)
		}
		seq, err := dec.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: seq: %v", rpc.ErrBadRequest, err)
		}
		snapshot, err := dec.Bytes()
		if err != nil {
			return nil, fmt.Errorf("%w: snapshot: %v", rpc.ErrBadRequest, err)
		}
		r.mu.Lock()
		if epoch < r.epoch {
			own := r.epoch
			r.mu.Unlock()
			return nil, fmt.Errorf("%w: shipment epoch %d < group epoch %d", rpc.ErrFenced, epoch, own)
		}
		if epoch > r.epoch {
			// A new leadership era we missed: adopt it. If we thought we
			// were primary, two primaries existed and the higher epoch wins.
			r.epoch = epoch
			r.role = RoleBackup
			r.backups = nil
			r.seq = 0
		}
		if seq <= r.seq {
			r.mu.Unlock()
			return nil, nil // duplicate or reordered older snapshot
		}
		r.seq = seq
		r.mu.Unlock()
		if err := r.inner.State().ReplaceFrom(snapshot); err != nil {
			return nil, fmt.Errorf("replica %s: apply shipment: %w", r.loid, err)
		}
		return nil, nil

	case MethodPromote:
		epoch, err := dec.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: epoch: %v", rpc.ErrBadRequest, err)
		}
		n, err := dec.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: backup count: %v", rpc.ErrBadRequest, err)
		}
		backups := make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			b, err := dec.String()
			if err != nil {
				return nil, fmt.Errorf("%w: backup: %v", rpc.ErrBadRequest, err)
			}
			backups = append(backups, b)
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if epoch <= r.epoch && !(epoch == r.epoch && r.role == RolePrimary) {
			return nil, fmt.Errorf("%w: promote epoch %d not newer than %d", rpc.ErrFenced, epoch, r.epoch)
		}
		r.epoch = epoch
		r.role = RolePrimary
		r.backups = backups
		return nil, nil

	case MethodDemote:
		epoch, err := dec.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: epoch: %v", rpc.ErrBadRequest, err)
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if epoch < r.epoch {
			return nil, fmt.Errorf("%w: demote epoch %d < group epoch %d", rpc.ErrFenced, epoch, r.epoch)
		}
		r.epoch = epoch
		r.role = RoleBackup
		r.backups = nil
		return nil, nil

	case MethodStatus:
		segs, err := r.versionSegs(ctx)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		st := Status{Role: r.role, Epoch: r.epoch, Seq: r.seq, VersionSegs: segs}
		r.mu.Unlock()
		e := wire.NewEncoder(32)
		e.PutString(st.Role.String())
		e.PutUvarint(st.Epoch)
		e.PutUvarint(st.Seq)
		e.PutUintSlice(st.VersionSegs)
		return e.Bytes(), nil

	default:
		return nil, fmt.Errorf("%w: %q", rpc.ErrNoSuchFunction, method)
	}
}

// versionSegs reads the wrapped object's version via its control plane.
func (r *Replica) versionSegs(ctx context.Context) ([]uint64, error) {
	out, err := r.inner.InvokeMethodCtx(ctx, core.MethodVersion, nil)
	if err != nil {
		return nil, err
	}
	return wire.NewDecoder(out).UintSlice()
}

// EncodePromoteArgs encodes a MethodPromote payload.
func EncodePromoteArgs(epoch uint64, backups []string) []byte {
	e := wire.NewEncoder(64)
	e.PutUvarint(epoch)
	e.PutUvarint(uint64(len(backups)))
	for _, b := range backups {
		e.PutString(b)
	}
	return e.Bytes()
}

// EncodeDemoteArgs encodes a MethodDemote payload.
func EncodeDemoteArgs(epoch uint64) []byte {
	e := wire.NewEncoder(8)
	e.PutUvarint(epoch)
	return e.Bytes()
}

// EncodeSyncToArgs encodes a MethodSyncTo payload.
func EncodeSyncToArgs(endpoint string) []byte {
	e := wire.NewEncoder(16 + len(endpoint))
	e.PutString(endpoint)
	return e.Bytes()
}

// DecodeStatus parses a MethodStatus response.
func DecodeStatus(buf []byte) (Status, error) {
	dec := wire.NewDecoder(buf)
	role, err := dec.String()
	if err != nil {
		return Status{}, fmt.Errorf("status: role: %w", err)
	}
	epoch, err := dec.Uvarint()
	if err != nil {
		return Status{}, fmt.Errorf("status: epoch: %w", err)
	}
	seq, err := dec.Uvarint()
	if err != nil {
		return Status{}, fmt.Errorf("status: seq: %w", err)
	}
	segs, err := dec.UintSlice()
	if err != nil {
		return Status{}, fmt.Errorf("status: version: %w", err)
	}
	st := Status{Epoch: epoch, Seq: seq, VersionSegs: segs}
	if role == RolePrimary.String() {
		st.Role = RolePrimary
	}
	return st, nil
}
