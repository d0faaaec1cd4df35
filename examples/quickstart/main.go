// Quickstart: declare a three-action pipeline with two quality levels
// in one SystemBuilder, open a Session, and run a few cycles under
// random load. This is the smallest complete use of the public API:
// model the application, validate it, and let the controller pick
// quality levels that never miss the cycle deadline while filling the
// time budget.
package main

import (
	"fmt"
	"log"
	"strings"

	qos "repro"
)

func main() {
	// The application: fetch -> process -> emit, once per cycle. Only
	// "process" depends on the level: the high-quality path averages
	// 60 cycles (worst case 100), the low one 20 (worst case 30). One
	// hard deadline: the cycle must finish within 124 cycles. The
	// high-quality process (worst case 100) plus emit (worst case 12)
	// leaves 12 cycles of margin: q1 is admitted only after fast
	// fetches, so runs mix both levels.
	sys, err := qos.NewSystemBuilder().
		Levels(0, 1).
		Actions("fetch", "process", "emit").
		Chain("fetch", "process", "emit").
		TimeAll("fetch", 10, 15).
		Time("process", 0, 20, 30).
		Time("process", 1, 60, 100).
		TimeAll("emit", 10, 12).
		DeadlineAll("emit", 124).
		Build()
	if err != nil {
		log.Fatal(err) // names the offending action and level
	}

	// One stream, one session. An observer watches the controller
	// degrade quality when a slow fetch would make q1 unsafe.
	var lowDecisions int
	s, err := qos.NewSession(sys, qos.WithObserver(qos.FuncObserver{
		Decision: func(d qos.Decision) {
			if d.Level == 0 {
				lowDecisions++
			}
		},
	}))
	if err != nil {
		log.Fatal(err)
	}

	// Simulated execution: actual times land between average and worst
	// case, drawn from a deterministic generator. The workload also
	// notes which level each action ran at.
	rng := qos.NewRNG(42)
	g := sys.Graph
	for cycle := 0; cycle < 5; cycle++ {
		s.Reset()
		var ran []string
		res, err := s.RunFunc(func(a qos.ActionID, q qos.Level) qos.Cycles {
			ran = append(ran, fmt.Sprintf("%s@q%d", g.Name(a), q))
			av := sys.Cav.At(q, a)
			wc := sys.Cwc.At(q, a)
			return av.AddSat(qos.Cycles(rng.Float64() * float64(wc.SubSat(av))))
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cycle %d: finished at t=%-4s quality=%s  misses=%d\n",
			cycle, res.Elapsed, strings.Join(ran, ","), res.Misses)
	}
	fmt.Printf("\n%d decisions ran at q0: the controller holds q1 while the\n", lowDecisions)
	fmt.Println("budget allows and degrades process whenever q1 would be unsafe.")
}
