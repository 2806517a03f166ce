package server

import "corun/internal/journal"

// Job lifecycle states. A job is queued on admission, planned when the
// scheduler claims its epoch and computes a schedule, running while
// the epoch executes on the simulated machine, and done (or failed)
// afterwards. Epochs are non-preemptive: once planned, a job always
// reaches a terminal state.
const (
	JobQueued  = "queued"
	JobPlanned = "planned"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// terminal reports whether a job state is final.
func terminal(state string) bool { return state == JobDone || state == JobFailed }

// Job is one submitted job and its scheduling outcome: the journal's
// record of it, which is also what the job table publishes and what
// every HTTP job body carries, in the journal's encoding
// (journal.AppendJob: byte-equal to json.Marshal of the record). Fields
// with the Sim suffix are simulated seconds on the node's scheduling
// clock (which advances by each epoch's makespan); SubmittedAt is
// wall-clock time.
type Job = journal.JobRecord
