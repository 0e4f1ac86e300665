package mapreduce

import (
	"io"
	"net/http"
	"testing"

	"knnjoin/internal/obs"
)

// TestCoordinatorMetricsParse runs one job on a distributed cluster and
// scrapes the coordinator's GET /metrics: the payload must parse as
// Prometheus text exposition and its counters must reflect the job.
func TestCoordinatorMetricsParse(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed cluster spawns worker processes; skipped with -short")
	}
	fs := diskStore(t, 8)
	wordRecords("in", 60)(fs)
	c, err := NewCluster(fs, 4, Config{Workers: 2})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 2, Mode: "wordcount"}
	if _, err := c.Run(testKind.New(spec)); err != nil {
		t.Fatalf("job: %v", err)
	}

	resp, err := http.Get(c.CoordinatorURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", resp.StatusCode, body)
	}
	fams, err := obs.ParseText(string(body))
	if err != nil {
		t.Fatalf("coordinator /metrics does not parse: %v\n%s", err, body)
	}
	byName := make(map[string]obs.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	jobs, ok := byName["mr_jobs_total"]
	if !ok {
		t.Fatal("mr_jobs_total missing from coordinator /metrics")
	}
	if jobs.Samples[0].Value < 1 {
		t.Fatalf("mr_jobs_total = %g, want >= 1", jobs.Samples[0].Value)
	}
	tasks, ok := byName["mr_worker_tasks_total"]
	if !ok {
		t.Fatal("mr_worker_tasks_total missing from coordinator /metrics")
	}
	if tasks.Samples[0].Value < 1 {
		t.Fatalf("mr_worker_tasks_total = %g, want >= 1", tasks.Samples[0].Value)
	}
}
