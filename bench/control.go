package main

import (
	"bytes"
	"io"
	"net/http"
)

// The control. This sandbox moves between machine states that last
// seconds to minutes and change every socket-level timing by a quarter
// to a half while a register-only spin loop does not move at all (see
// CALIBRATION.md): no statistic over one run's samples can remove a
// state that outlasts the run. What can is a control that lives through
// the same states: in one turn of every cycle the same clients send the
// same requests to a handler that does nothing. No change to the
// repository can move that round trip — if it moves, the machine moved.
//
// The five latency and rate metrics are reported at the nominal machine
// state: a latency is divided, a rate multiplied, by the run's control
// p50 over nullNominalUS. The raw values and the control itself are
// printed beside them and kept in the run document. The control shares
// the process with the system under test, so a change that adds
// process-wide idle-time cost (a heap the collector takes longer to
// walk) is partly absorbed; mem_after_setup_mb gates that separately.

// nullNominalUS is the control's round trip in this sandbox's fast
// state. It only fixes the scale the corrected metrics are quoted at.
const nullNominalUS = 25.0

// nullReply is the control's canned body, the size of a rank reply.
var nullReply = bytes.Repeat([]byte("x"), 600)

// startNull serves the do-nothing handler on a fresh loopback port, with
// the same http.Server settings as the system under test.
func startNull() (*http.Server, string, error) {
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		_, _ = io.Copy(io.Discard, req.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(nullReply)
	}))
	addr, err := serveOn(srv)
	return srv, addr, err
}

// machineFactor is how much slower than nominal the machine ran, judged
// by the control samples of the whole run; 1 when there are none (smoke
// windows too short to reach a control turn).
func machineFactor(control []*recorder) (factor, p50us float64, n int) {
	s := summarize(control, nil)
	if s.samples == 0 {
		return 1, 0, 0
	}
	return s.p50us / nullNominalUS, s.p50us, s.samples
}
