// Package goshutdown seeds violations of the goroutine-shutdown rule:
// goroutines in service packages with no way to stop them. The fixed
// shapes (select on a stop channel, range over a closable channel,
// lifecycle delegation to a blocking Serve) ride along as negatives.
package goshutdown

type server interface {
	Serve() error
}

type worker struct {
	stopCh chan struct{}
	wake   chan struct{}
	jobs   chan int
}

func (w *worker) run() {
	for {
		select {
		case <-w.stopCh:
			return
		case <-w.wake:
		}
	}
}

func (w *worker) spin() {
	for {
		<-w.wake
	}
}

func startSelectLoop(w *worker) {
	go w.run()
}

func startUnstoppable(w *worker) {
	go w.spin() // want goroutine-shutdown
}

func startInlineUnstoppable(w *worker) {
	go func() { // want goroutine-shutdown
		for {
			<-w.wake
		}
	}()
}

func startInlineSelect(w *worker) {
	go func() {
		for {
			select {
			case <-w.stopCh:
				return
			case <-w.wake:
			}
		}
	}()
}

func startDrainLoop(w *worker) {
	go func() {
		for range w.jobs {
		}
	}()
}

func startDelegate(s server) {
	go func() { _ = s.Serve() }()
}

// The scheduler's extended loop: wake, tick and stop share one select, and
// the checkpoint and idle-sync callbacks run between receives — still one
// stoppable goroutine.
func (w *worker) runExtended(tick <-chan int, checkpoint, idle func() error) {
	for {
		select {
		case <-w.stopCh:
			return
		case <-tick:
			if idle() != nil {
				return
			}
		case <-w.wake:
			if checkpoint() != nil {
				return
			}
		}
	}
}

func startExtendedLoop(w *worker, tick <-chan int, checkpoint, idle func() error) {
	go w.runExtended(tick, checkpoint, idle)
}

// A goroutine per checkpoint is what the loop replaces: nothing stops it
// and nothing waits for it, so it can outlive Close with the files gone.
func startPerCheckpoint(persist func() error) {
	go persist() // want goroutine-shutdown
}

// Run is named like a lifecycle delegate but loops forever: only Serve
// delegates, so the body is checked like any other.
func (w *worker) Run() {
	for {
		<-w.wake
	}
}

func startRunNamed(w *worker) {
	go w.Run() // want goroutine-shutdown
}
