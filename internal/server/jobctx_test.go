package server

import (
	"context"
	"testing"
	"time"

	"hged"
)

// TestFinishedJobReleasesContext checks that a job's context is cancelled
// once the job ends, so finished jobs do not pile up among the manager's
// base-context children, and that neither this nor a later Cancel changes
// the outcome of a job that is already done.
func TestFinishedJobReleasesContext(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	if _, err := s.Registry().Add("fig1", hged.Fig1(), "builtin"); err != nil {
		t.Fatal(err)
	}
	job, err := s.Jobs().Submit("fig1", hged.PredictOptions{Lambda: 2, Tau: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if job.ctx.Err() == nil {
		t.Fatal("a finished job's context is still live")
	}
	before := job.View()
	if before.State != JobDone {
		t.Fatalf("job ended %q, want done", before.State)
	}
	job.Cancel()
	if after := job.View(); after.State != JobDone || len(after.Predictions) != len(before.Predictions) || after.Error != "" {
		t.Fatalf("Cancel after the end changed the job: %+v, was %+v", after, before)
	}
}
