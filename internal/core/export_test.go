package core

// AddTestKernel adds a kernel from outside core to the backend matrix
// this package's tests run over (equivBackends). The external test
// package adds internal/bloom's parallel-bloom kernel, which core
// itself cannot import.
func AddTestKernel(name Backend, build func(*ProfileSet) (Kernel, error)) {
	paperKernels = append(paperKernels, testKernel{name, build})
}

// TrainMini trains the tests' small four-language corpus under cfg.
var TrainMini = trainMini

// trainTexts trains this package's test profile sets. internal/train,
// the one trainer, imports core, so core's own tests cannot import it:
// the external test package sets the hook to train.Texts through
// SetTrainTexts before any test runs.
var trainTexts func(Config, map[string][][]byte) (*ProfileSet, error)

// SetTrainTexts sets the trainer this package's tests train with.
func SetTrainTexts(train func(Config, map[string][][]byte) (*ProfileSet, error)) {
	trainTexts = train
}

// KernelCounts adds each language's match count over gs into counts
// through k's AddLanes, laneFlush n-grams to a fold.
var KernelCounts = kernelCounts
