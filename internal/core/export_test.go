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
