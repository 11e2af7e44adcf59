// Package viewrefcount seeds violations of the view-refcount rule:
// acquired core.Views that miss their Release, and core.Pins that miss
// their Unpin, on some path. The fixed shapes (deferred release, release
// on every path, escape to the caller) ride along as negatives.
package viewrefcount

import (
	"lsmssd/internal/block"
	"lsmssd/internal/core"
)

func leakOnSuccessPath(t *core.Tree, skip bool) error {
	v, err := t.AcquireView() // want view-refcount
	if err != nil {
		return err
	}
	if skip {
		return nil
	}
	v.Release()
	return nil
}

func neverReleased(t *core.Tree) error {
	v, err := t.AcquireView() // want view-refcount
	if err != nil {
		return err
	}
	_ = v.MemLen()
	return nil
}

func discarded(t *core.Tree) {
	_, _ = t.AcquireView() // want view-refcount
}

func deferredRelease(t *core.Tree) (int, error) {
	v, err := t.AcquireView()
	if err != nil {
		return 0, err
	}
	defer v.Release()
	return v.MemLen(), nil
}

func releasedOnEveryPath(t *core.Tree, fast bool) (int, error) {
	v, err := t.AcquireView()
	if err != nil {
		return 0, err
	}
	if fast {
		n := v.MemLen()
		v.Release()
		return n, nil
	}
	v.Release()
	return 0, nil
}

type cursor struct {
	view *core.View
}

// escapes hands the view to the caller inside a cursor; the receiver owns
// the release.
func escapes(t *core.Tree) (*cursor, error) {
	v, err := t.AcquireView()
	if err != nil {
		return nil, err
	}
	return &cursor{view: v}, nil
}

// nilComparedButLeaks: comparing the view with nil keeps the obligation;
// only a release or an escape ends it.
func nilComparedButLeaks(t *core.Tree, skip bool) error {
	v, err := t.AcquireView() // want view-refcount
	if err != nil {
		return err
	}
	if v != nil && skip {
		return nil
	}
	v.Release()
	return nil
}

// nilGuarded: on the nil branch nothing is held.
func nilGuarded(t *core.Tree) {
	v, _ := t.AcquireView()
	if v == nil {
		return
	}
	v.Release()
}

func droppedBare(t *core.Tree) {
	t.AcquireView() // want view-refcount unchecked-err
}

func pinDroppedOnMiss(t *core.Tree, k uint64) ([]byte, error) {
	p, err := t.PinView() // want view-refcount
	if err != nil {
		return nil, err
	}
	v, ok, err := p.View().Get(block.Key(k))
	if err != nil || !ok {
		return nil, err
	}
	p.Unpin()
	return v, nil
}

func pinDiscarded(t *core.Tree) {
	_, _ = t.PinView() // want view-refcount
}

func pinDeferredUnpin(t *core.Tree, k uint64) ([]byte, error) {
	p, err := t.PinView()
	if err != nil {
		return nil, err
	}
	defer p.Unpin()
	v, _, err := p.View().Get(block.Key(k))
	return v, err
}
