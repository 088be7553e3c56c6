package coord

import (
	"amcast/internal/transport"
)

// Suspicion arbitration: failure detectors (see Detector) file per-observer
// suspicion reports here instead of calling MarkDown directly. A target is
// marked down only when a majority of its alive monitors — processes that
// share at least one ring with it — agree, which keeps one partitioned or
// freshly crashed observer from taking healthy nodes out. When every report
// against an auto-marked target is withdrawn (heartbeats resumed and the
// observers' hysteresis cleared), the target is marked up again.
//
// The paper delegates this to Zookeeper (Section 7.1: ring management is
// "handled by Zookeeper"); here the same session-expiry role is played by
// heartbeat observers arbitrated through the coordination service itself.

// Suspect files observer's suspicion of target. Idempotent; every call
// re-runs the arbitration so reports filed before a membership change still
// take effect after it.
func (s *Service) Suspect(observer, target transport.ProcessID) {
	if observer == target {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.suspicion[target]
	if set == nil {
		set = make(map[transport.ProcessID]bool)
		s.suspicion[target] = set
	}
	set[observer] = true
	s.evalSuspicionAllLocked()
}

// Unsuspect withdraws observer's suspicion of target (heartbeats resumed).
func (s *Service) Unsuspect(observer, target transport.ProcessID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if set := s.suspicion[target]; set != nil {
		delete(set, observer)
		if len(set) == 0 {
			delete(s.suspicion, target)
		}
	}
	s.evalSuspicionAllLocked()
}

// ClearObserver withdraws every report filed by observer. Called when a
// detector stops gracefully so a departing process cannot leave stale
// accusations behind.
func (s *Service) ClearObserver(observer transport.ProcessID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for target, set := range s.suspicion {
		delete(set, observer)
		if len(set) == 0 {
			delete(s.suspicion, target)
		}
	}
	s.evalSuspicionAllLocked()
}

// downAnywhereLocked reports whether id is marked down in some ring.
func (s *Service) downAnywhereLocked(id transport.ProcessID) bool {
	for _, st := range s.rings {
		if st.cfg.Down[id] {
			return true
		}
	}
	return false
}

// monitorsLocked returns the alive processes sharing at least one ring with
// target (the electorate for suspicion arbitration).
func (s *Service) monitorsLocked(target transport.ProcessID) map[transport.ProcessID]bool {
	monitors := make(map[transport.ProcessID]bool)
	for _, st := range s.rings {
		member := false
		for _, m := range st.cfg.Members {
			if m.ID == target {
				member = true
				break
			}
		}
		if !member {
			continue
		}
		for _, m := range st.cfg.Members {
			if m.ID != target && !st.cfg.Down[m.ID] {
				monitors[m.ID] = true
			}
		}
	}
	return monitors
}

// evalSuspicionAllLocked re-arbitrates every target with outstanding or
// recently withdrawn reports. Marking one target down shrinks the monitor
// electorate of others, so arbitration iterates toward a fixed point (with
// a safety bound against pathological oscillation).
func (s *Service) evalSuspicionAllLocked() {
	for round := 0; round < len(s.suspicion)+len(s.autoDown)+2; round++ {
		changed := false
		// Auto-down first: a crashed observer's stale reports lose weight
		// once the crash itself is agreed on.
		for target := range s.suspicion {
			if s.evalTargetLocked(target) {
				changed = true
			}
		}
		// Auto-up: targets no alive monitor suspects any more. Reports
		// from down observers are stale accusations, not evidence — if the
		// target is genuinely still dead, live detectors re-suspect it on
		// their next tick.
		for target := range s.autoDown {
			if !s.downAnywhereLocked(target) {
				delete(s.autoDown, target)
				continue
			}
			monitors := s.monitorsLocked(target)
			live := 0
			for obs := range s.suspicion[target] {
				if monitors[obs] {
					live++
				}
			}
			if live == 0 {
				delete(s.autoDown, target)
				s.setLivenessLocked(target, false)
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// evalTargetLocked marks target down if a majority of its alive monitors
// suspect it. Returns true if liveness changed.
func (s *Service) evalTargetLocked(target transport.ProcessID) bool {
	if s.downAnywhereLocked(target) {
		return false // already down (auto or manual)
	}
	monitors := s.monitorsLocked(target)
	if len(monitors) == 0 {
		return false
	}
	count := 0
	for obs := range s.suspicion[target] {
		if monitors[obs] {
			count++
		}
	}
	if count < len(monitors)/2+1 {
		return false
	}
	s.autoDown[target] = true
	s.setLivenessLocked(target, true)
	return true
}
