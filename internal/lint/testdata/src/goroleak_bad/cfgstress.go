// cfgstress gives each branching shape of the CFG builder — labeled
// loops, switch with fallthrough, select — one path out of a goroutine
// body that skips the completion signal, so a builder that drops or
// misroutes the shape's edge misses the finding. (goto is modeled as
// falling through, so it has no firing case.)
package fixture

// labeledReturn returns from inside the labeled loop nest.
func labeledReturn(rs []int) {
	done := make(chan struct{})
	go func() { // want goroleak
	outer:
		for i := range rs {
			for _, r := range rs {
				switch {
				case r == i:
					continue outer
				case r > 4:
					return
				}
			}
		}
		close(done)
	}()
	<-done
}

// fallthroughToReturn falls from the first case into one that returns.
func fallthroughToReturn(n int) {
	done := make(chan struct{})
	go func() { // want goroleak
		switch n {
		case 0:
			n++
			fallthrough
		case 1:
			return
		}
		close(done)
	}()
	<-done
}

// selectReturn returns from one select clause.
func selectReturn(in chan int) {
	done := make(chan struct{})
	go func() { // want goroleak
		select {
		case <-in:
			return
		default:
		}
		close(done)
	}()
	<-done
}
