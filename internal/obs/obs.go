package obs

// Obs bundles the per-process bus and metrics registry, so a daemon's
// subsystems share one firehose and one /metrics exposition.
type Obs struct {
	Bus     *Bus
	Metrics *Registry
}

// New builds a process observability hub.
func New() *Obs {
	return &Obs{Bus: NewBus(0), Metrics: NewRegistry()}
}
