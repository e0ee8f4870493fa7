package core

// Realms hands the shared simulated realms to the differential tests,
// which live in package core_test because internal/reference, the
// oracle they hold the analyses to, imports this package.
var Realms = realms
