package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fhdnn/internal/compress"
	"fhdnn/internal/core"
	"fhdnn/internal/dataset"
	"fhdnn/internal/fedcore"
	"fhdnn/internal/fl"
	"fhdnn/internal/hdc"
	"fhdnn/internal/tensor"
)

// fedtrain: FHDnn federated training in process, no HTTP. Each job runs
// the whole pipeline on a synthetic CIFAR-like set: the frozen random
// conv extractor, the HD encoder at the paper's d, then fl.HDTrainer
// rounds whose clients uplink through a top-k compress.Uplink into
// fedcore.Bundle. An upload here is one client update crossing that
// uplink (encode and decode), the in-process counterpart of a POST.
const (
	ftK             = 10
	ftD             = 10000
	ftSize          = 32
	ftWidth         = 4 // extractor channels: 4*16*16 = 1024 features
	ftTrainPerClass = 30
	ftTestPerClass  = 10
	ftClients       = 10
	ftFraction      = 1.0 // partial participation makes early rounds swing (see README)
	ftRounds        = 8
	ftEpochs        = 2
	// ftMinAccuracy is the test accuracy a job must beat: 2.5x chance.
	ftMinAccuracy = 2.5 / ftK
)

var ftCodec = compress.TopK{Frac: 0.1}

type fedtrain struct {
	seed        int64
	train, test *dataset.Dataset
	ext         *core.NetworkExtractor
	enc         *hdc.Encoder
	part        dataset.Partition

	// From the last job, for the replay.
	encTrain, encTest *tensor.Tensor
	updates           [][]float32
	firstModel        []float32 // the first job's final model, which every job must reproduce
}

func newFedtrain(seed int64) (workload, error) {
	train, test := dataset.GenerateImages(dataset.CIFAR10Like(ftSize, ftTrainPerClass, ftTestPerClass, seed))
	ext := core.NewRandomConvExtractor(seed, train.X.Dim(1), ftWidth, ftSize)
	enc := hdc.NewEncoder(rand.New(rand.NewSource(seed)), ftD, ext.Dim())
	part := dataset.PartitionIID(train.Len(), ftClients, rand.New(rand.NewSource(seed+1)))
	return &fedtrain{seed: seed, train: train, test: test, ext: ext, enc: enc, part: part}, nil
}

func (w *fedtrain) close() {}

// timedUplink is the top-k uplink with each transmission timed; it
// embeds compress.Uplink so traffic accounting sees the same codec.
type timedUplink struct {
	compress.Uplink
	mu      sync.Mutex
	lat     []float64
	tr      *tracer
	parent  int64
	capture int         // how many client updates to keep for the replay
	kept    [][]float32 // the first updates sent, before the codec
}

func (u *timedUplink) Transmit(update []float32, rng *rand.Rand) []float32 {
	t0 := time.Now()
	out := u.Uplink.Transmit(update, rng)
	t1 := time.Now()
	u.tr.record("compress.uplink", 0, u.parent, t0, t1)
	u.mu.Lock()
	u.lat = append(u.lat, ms(t1.Sub(t0)))
	if len(u.kept) < u.capture {
		u.kept = append(u.kept, append([]float32(nil), update...))
	}
	u.mu.Unlock()
	return out
}

// ftJob is what one pipeline run measured.
type ftJob struct {
	features, encode, run time.Duration
	accuracy              float64
	bytesPerRound         float64
	uploads               int // client updates uplinked
}

func (w *fedtrain) job(up *timedUplink, tr *tracer, p *pass) ftJob {
	var j ftJob
	root := tr.begin("fedtrain.job", 0, 0)
	defer tr.end(root)
	t0 := time.Now()
	fTrain := w.ext.Features(w.train.X)
	fTest := w.ext.Features(w.test.X)
	t1 := time.Now()
	tr.record("core.features", 0, root, t0, t1)
	encTrain := w.enc.EncodeBatch(fTrain)
	encTest := w.enc.EncodeBatch(fTest)
	t2 := time.Now()
	tr.record("hdc.encode_batch", 0, root, t1, t2)
	run := tr.begin("fl.run", 0, root)
	up.parent = run
	trainer := &fl.HDTrainer{
		Cfg: fl.Config{
			NumClients: ftClients, ClientFraction: ftFraction, LocalEpochs: ftEpochs,
			BatchSize: 1, Rounds: ftRounds, Seed: w.seed,
			Parallel: runtime.GOMAXPROCS(0), Uplink: up,
		},
		Encoded: encTrain, Labels: w.train.Labels,
		TestEnc: encTest, TestLabels: w.test.Labels,
		NumClasses: ftK, Part: w.part,
	}
	hist, model := trainer.Run()
	t3 := time.Now()
	tr.end(run)
	j.features, j.encode, j.run = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	j.accuracy = hist.FinalAccuracy()
	j.bytesPerRound = float64(hist.TotalBytes()) / float64(len(hist.Rounds))
	w.encTrain, w.encTest = encTrain, encTest

	wantBytes := int64(fedcore.WireBytes(ftCodec, ftK*ftD))
	for _, r := range hist.Rounds {
		if r.Participants < 1 || r.BytesUplinked != int64(r.Participants)*wantBytes {
			p.problemf("fedtrain: round %d uplinked %d bytes from %d participants, want %d each",
				r.Round, r.BytesUplinked, r.Participants, wantBytes)
		}
	}
	if j.accuracy <= ftMinAccuracy {
		p.problemf("fedtrain: test accuracy %.4f is not above %.4f (chance is %.4f)", j.accuracy, ftMinAccuracy, 1.0/ftK)
	}
	flat := model.Flat()
	if w.firstModel == nil {
		w.firstModel = append([]float32(nil), flat...)
	} else if firstDiff(flat, w.firstModel) >= 0 {
		p.problemf("fedtrain: a repeated job trained a different model from the same inputs")
	}
	return j
}

func (w *fedtrain) run(d time.Duration, tr *tracer) *pass {
	p := newPass()
	up := &timedUplink{Uplink: compress.Uplink{C: ftCodec}, tr: tr, capture: 2 * ftClients}
	w.job(up, tr, p) // warm-up: the first job grows the heap
	up.lat = nil
	heap := startHeapSampler(5 * time.Millisecond)
	before := takeProcSnap()
	var jobs []ftJob
	for len(jobs) == 0 || time.Since(before.wall) < d {
		sent := len(up.lat)
		j := w.job(up, tr, p)
		j.uploads = len(up.lat) - sent
		jobs = append(jobs, j)
	}
	end := takeProcSnap()
	peak := heap.finish()
	w.updates = up.kept

	wall := end.wall.Sub(before.wall).Seconds()
	samples := int64(len(jobs) * w.train.Len())
	for range up.lat {
		p.ops.add(false, "") // an in-process uplink cannot fail; the checks judge its output
	}
	var runS, featMs, encMs, perRound, rate []float64
	for _, j := range jobs {
		perRound = append(perRound, j.bytesPerRound)
		runS = append(runS, j.run.Seconds())
		featMs = append(featMs, ms(j.features)/float64(w.train.Len()+w.test.Len()))
		encMs = append(encMs, ms(j.encode)/float64(w.train.Len()+w.test.Len()))
		rate = append(rate, float64(j.uploads)/(j.features+j.encode+j.run).Seconds())
	}
	lat := blocked(up.lat)
	p.e2e["uploads_per_s"] = median(rate)
	p.e2e["upload_p50_ms"] = lat.P50
	p.e2e["upload_p99_ms"] = lat.P99
	p.e2e["round_s"] = median(runS) / ftRounds
	p.e2e["bytes_per_round"] = median(perRound)
	p.e2e["peak_heap_mb"] = peak
	p.cost = wall / float64(len(jobs))
	p.layers["train_samples_per_s"] = float64(samples) / wall
	p.layers["test_accuracy"] = jobs[len(jobs)-1].accuracy
	p.layers["core.features_ms_per_sample"] = median(featMs)
	p.layers["hdc.encode_batch_ms_per_sample"] = median(encMs)
	p.layers["fl.run_s"] = median(runS)
	p.layers["fl.round_ms"] = median(runS) / ftRounds * 1000
	p.e2e["cpu_ms_per_upload"] = procBetween(before, end, int64(len(up.lat))).CPUMsOp
	procBetween(before, end, samples).report(p.layers)
	(statsDelta{}).report(p.layers, nil) // no upload reaches flnet
	fmt.Printf("fedtrain pass: %d jobs, upload_ms %s (the %%ile reported as p99 is p%g), accuracy %.4f\n",
		len(jobs), lat, lat.P99Is, jobs[len(jobs)-1].accuracy)
	return p
}

// replay times the HD layer on the last job's encodings, one call at a
// time, then the wire layers on the client updates the uplink carried.
func (w *fedtrain) replay(tr *tracer, into map[string]float64) error {
	root := tr.begin("replay.hdc", 0, 0)
	var oneshot, refine, acc []float64
	d := w.encTrain.Dim(1)
	for _, idx := range w.part {
		x := tensor.New(len(idx), d)
		labels := make([]int, len(idx))
		for bi, i := range idx {
			copy(x.Data()[bi*d:(bi+1)*d], w.encTrain.Data()[i*d:(i+1)*d])
			labels[bi] = w.train.Labels[i]
		}
		m := hdc.NewModel(ftK, d)
		t0 := time.Now()
		m.OneShotTrain(x, labels)
		t1 := time.Now()
		m.RefineEpoch(x, labels)
		t2 := time.Now()
		m.Accuracy(w.encTest, w.test.Labels)
		t3 := time.Now()
		tr.record("hdc.oneshot", 0, root, t0, t1)
		tr.record("hdc.refine_epoch", 0, root, t1, t2)
		tr.record("hdc.accuracy", 0, root, t2, t3)
		oneshot = append(oneshot, ms(t1.Sub(t0)))
		refine = append(refine, ms(t2.Sub(t1)))
		acc = append(acc, ms(t3.Sub(t2)))
	}
	tr.end(root)
	into["hdc.oneshot_ms"] = median(oneshot)
	into["hdc.refine_epoch_ms"] = median(refine)
	into["hdc.accuracy_ms"] = median(acc)
	return replayCodecs(tr, w.updates, into)
}

func (w *fedtrain) finish() []string { return nil }
