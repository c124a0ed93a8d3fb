package service

import (
	"net/http"

	"relaxsched/internal/api"
	"relaxsched/internal/metricsexport"
	"relaxsched/internal/workload"
)

// NewHandler returns the service's HTTP API: the generic versioned
// handler (api.NewHandler) serving this manager through the Local
// dispatcher adapter, plus the node's Prometheus text exposition at
// GET /v1/metrics/prom. Routes, status codes and the error envelope are
// documented on api.NewHandler; the same handler fronts a gateway, so a
// client cannot tell one node from a cluster.
//
// The prom route sits in this wrapper rather than api.NewHandler because
// the renderer (internal/metricsexport) imports internal/api; the generic
// handler cannot import it back.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/metrics/prom", func(w http.ResponseWriter, r *http.Request) {
		snap := m.Metrics()
		w.Header().Set("Content-Type", metricsexport.ContentType)
		w.Write(metricsexport.Render(&snap))
	})
	mux.Handle("/", api.NewHandler(Local{M: m}))
	return api.WithTrace(mux)
}

// Workloads lists the registered workloads in the registry's deterministic
// (sorted) order.
func Workloads() []api.WorkloadInfo {
	all := workload.All()
	infos := make([]api.WorkloadInfo, 0, len(all))
	for _, d := range all {
		infos = append(infos, api.WorkloadInfo{
			Name:       d.Name,
			Kind:       d.Kind.String(),
			Brief:      d.Brief,
			Input:      d.Input,
			WastedWork: d.WastedWork,
		})
	}
	return infos
}
