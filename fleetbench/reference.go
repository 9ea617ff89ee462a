package main

import (
	"fmt"

	"vihot/internal/core"
	"vihot/internal/csi"
	"vihot/internal/wifi"
)

// referenceReplay is the traced run's second part: every distinct
// stream replayed single-threaded through csi.Sanitize and
// core.Pipeline directly, with match and fuse split out by the
// pipeline's stage observer. It returns each stream's estimates, which
// the concurrent replay must equal bit for bit. Spans carry the
// request id of the first session replaying the stream.
func referenceReplay(in *inputs, profiles []*core.Profile, log *spanLog) ([][]estRec, error) {
	firstSess := make([]int32, len(in.streams))
	for i := range firstSess {
		firstSess[i] = -1
	}
	for i := len(in.sessions) - 1; i >= 0; i-- {
		firstSess[in.sessions[i].stream] = int32(i)
	}
	out := make([][]estRec, len(in.streams))
	for si := range in.streams {
		st := &in.streams[si]
		sess := firstSess[si]
		if sess < 0 {
			continue
		}
		pl, err := core.NewPipeline(profiles[st.config], core.DefaultPipelineConfig())
		if err != nil {
			return nil, err
		}
		var parent, seq int32
		pl.SetStageObserver(func(stage string, _ float64, dur int64) {
			var name uint8
			switch stage {
			case core.StageMatch:
				name = spMatch
			case core.StageFuse:
				name = spFuse
			default:
				return
			}
			end := log.now()
			log.add(name, parent, sess, seq, end-dur, end)
		})
		var ests []estRec
		lastCSI, haveCSI := 0.0, false
		for e, ev := range st.events {
			seq = int32(e)
			switch ev.kind {
			case evCamera:
				t0 := log.now()
				pl.PushCamera(st.cams[ev.off])
				log.add(spPushCamera, 0, sess, seq, t0, log.now())
				continue
			}
			pkt, err := wifi.DecodePooled(st.wire[ev.off : ev.off+uint32(ev.n)])
			if err != nil {
				return nil, fmt.Errorf("stream %d item %d: %w", si, e, err)
			}
			if pkt.IMU != nil {
				t0 := log.now()
				pl.PushIMU(*pkt.IMU)
				log.add(spPushIMU, 0, sess, seq, t0, log.now())
				continue
			}
			t0 := log.now()
			phi, err := csi.Sanitize(pkt.CSI, 0, 1)
			log.add(spSanitize, 0, sess, seq, t0, log.now())
			t := pkt.CSI.Time
			csi.PutFrame(pkt.CSI)
			// The serving layer drops unusable and non-monotone frames
			// before the pipeline sees them.
			if err != nil || (haveCSI && t <= lastCSI) {
				continue
			}
			lastCSI, haveCSI = t, true
			parent = log.begin(spPushCSI, 0, sess, seq)
			est, ok := pl.PushCSI(t, phi)
			log.finish(parent)
			parent = 0
			if ok {
				ests = append(ests, estRec{t: est.Time, yaw: est.Yaw, dist: est.MatchDist,
					sess: sess, pos: int32(est.Position), src: uint8(est.Source)})
			}
		}
		out[si] = ests
	}
	return out, nil
}
