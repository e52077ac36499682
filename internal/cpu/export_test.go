package cpu

// LockStepFunctions opens the lock-step harness to the external test
// package: the driver sources import kernel, which imports this package.
var LockStepFunctions = lockStepFunctions
