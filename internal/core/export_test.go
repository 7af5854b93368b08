package core

// ChainVictim exports the junction-heavy check-chain victim to the golden
// corpus of the external test package.
var ChainVictim = chainVictim
