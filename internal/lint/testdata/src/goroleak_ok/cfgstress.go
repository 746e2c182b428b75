// cfgstress drives the CFG builder through every statement shape —
// labeled loops, goto, switch with fallthrough, type switches, select,
// ranges — inside goroutine bodies that signal completion after the
// control flow. Each signal is reached on every path only if the builder
// models the shape's edges correctly, so a missing or misrouted edge shows
// up as a false finding here.
package fixture

// labeledLoops leaves the inner loop by continue and break on the outer
// label; both land before the signal.
func labeledLoops(rs []int) {
	done := make(chan struct{})
	go func() {
	outer:
		for i := 0; i < len(rs); i++ {
			for _, r := range rs {
				switch {
				case r == i:
					continue outer
				case r > 4:
					break outer
				}
				work()
			}
		}
		close(done)
	}()
	<-done
}

// gotoForward jumps over a loop to a label in front of the signal (the
// builder models goto as falling through).
func gotoForward(n int) {
	done := make(chan struct{})
	go func() {
		if n < 0 {
			goto signal
		}
		for n > 1 {
			n--
		}
	signal:
		close(done)
	}()
	<-done
}

// fallthroughCase signals in every case but the first, which reaches the
// signal only through its fallthrough edge.
func fallthroughCase(n int) {
	done := make(chan struct{}, 1)
	go func() {
		switch n {
		case 0:
			n++
			fallthrough
		case 1:
			close(done)
		default:
			done <- struct{}{}
		}
	}()
	<-done
}

// typeSwitchSelect passes a type switch and a select with a default
// clause before the signal.
func typeSwitchSelect(x interface{}, in chan int) {
	done := make(chan struct{})
	go func() {
		n := 0
		switch t := x.(type) {
		case int:
			n = t
		case string:
			n = len(t)
		}
		select {
		case v := <-in:
			n += v
		default:
		}
		_ = n
		close(done)
	}()
	<-done
}

// rangeBreak leaves a map range early and a slice range normally.
func rangeBreak(m map[int]int, rs []int) {
	done := make(chan struct{})
	go func() {
		for range m {
			break
		}
		for _, r := range rs {
			if r < 0 {
				continue
			}
			work()
		}
		close(done)
	}()
	<-done
}

// elseReturns signals on every branch of an if/else-if/else chain and
// ends in a return, so control never falls off the end of the body.
func elseReturns(n int) {
	done := make(chan struct{}, 1)
	go func() {
		if n < 0 {
			close(done)
			return
		} else if n == 0 {
			done <- struct{}{}
		} else {
			close(done)
		}
		return
	}()
	<-done
}
