package anomaly

// RobustZ hands robustZ to the tests, which live in package anomaly_test
// because internal/reference, the oracle FailureProfiles is held to,
// imports this package.
var RobustZ = robustZ
