package bitutil

// DirectFold exposes the reference fold to the external test package,
// which checks the packed folds against every TAGE-family geometry.
var DirectFold = directFold
