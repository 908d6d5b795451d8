package main

// Manifest digests for TestFaultManifestsMatchDigests: "<file name> <sha256>"
// per manifest, in emission order, at -seed 1 -replications 2.

var failoverDigests = []string{
	"failover-spine-seed1.ndjson 3809009d9ab055c1cf68b24030896e94c345cd71de9f07d8bcb5aa523ebec2a7",
	"failover-wan-outage-seed1.ndjson 273706aab4950f246b4b442222881750f0d5d2e2106799771aed1e5666b1a4b9",
	"failover-spine-seed2.ndjson 1056fee9d9a9eff6bb95bcde4c043c55c7e14686fd3f6bddec9d3aab8a237c38",
	"failover-wan-outage-seed2.ndjson 84e5ca3114ef851d968bb564f7e5ecb2b0ee59b4e89d755cb39bf179a098a3d2",
}

var oefailoverDigests = []string{
	"oefailover-design-1-leaf-spine-seed1.ndjson ed20f4203b099ef34c959618f256cf97ef03110c3e700c7ecefb1431566f7ea7",
	"oefailover-design-2-cloud-seed1.ndjson b0b429779febcd04e21ece2ced0c966e06dd769c7d257cbba0e1dc6ba1ac5fd6",
	"oefailover-design-3-l1s-seed1.ndjson 9449ce8b75d8a14f10605e40162fa6dfe09d9e9ae85be8f7a6c0a9ef4b19dd13",
	"oefailover-design-1-leaf-spine-seed2.ndjson 59181ed751b65756158f76e5923542fcf8ecd17795ab918486ae3bd70e30cf5e",
	"oefailover-design-2-cloud-seed2.ndjson 35069fca4f423693dc50a6496a13e877041f4fb2405177e5399bfe00f9a4207e",
	"oefailover-design-3-l1s-seed2.ndjson 8e8f693ef777c7d675dde2a637184b153b344e914b6d6b7708f479640fe072e0",
}

var wanredundancyDigests = []string{
	"wanredundancy-design-1-leaf-spine-squall-replay-only-seed1.ndjson ce2be1bbaa94c99c211ab319931f248bdf24723c897b060e7e41aa39eaf0779d",
	"wanredundancy-design-1-leaf-spine-squall-parity-fec-seed1.ndjson 05f17a250d500ec8cbac9d50a4343e0abc07c39cfc5598daa9c1ceb6bbf0c1db",
	"wanredundancy-design-1-leaf-spine-squall-duplicate-seed1.ndjson 83ac4463fddc0288df3a92293ecc4a0e7b70e6ed1421733e4d9d6cf627846584",
	"wanredundancy-design-1-leaf-spine-squall-adaptive-seed1.ndjson cb32c33489298b87ca2aff7215f82a6ec0746a9b6109a67cf339c2d038c42ed0",
	"wanredundancy-design-1-leaf-spine-drizzle-replay-only-seed1.ndjson 3b1eff3b8b526b0a6fbc8c16f029364a7b41173ad19f89041a5bb5a7bcd3c091",
	"wanredundancy-design-1-leaf-spine-drizzle-parity-fec-seed1.ndjson 5fe3f386a9ef4362e9a5d291d2e8590876dff52b96d44917b726307afef75d51",
	"wanredundancy-design-1-leaf-spine-drizzle-duplicate-seed1.ndjson 3a10a61700177a8e3660c186285da6354c8e1c67d106a2f2fd78c0f279328100",
	"wanredundancy-design-1-leaf-spine-drizzle-adaptive-seed1.ndjson d3d2ab0ed91aed2b19767512203dfd06170f846f9e910834e89f5e24f6c88e52",
	"wanredundancy-design-2-cloud-squall-adaptive-seed1.ndjson bb83476792b1ac2db53abafb9c27bb66a10796cb332b5f08ac4014ec201e86da",
	"wanredundancy-design-3-l1s-squall-adaptive-seed1.ndjson 15c7eddd96690e72e843684b34c929fc611fd1b61dd626f4d458a236c735342d",
	"wanredundancy-design-1-leaf-spine-squall-replay-only-seed2.ndjson ed8d8b29d06a0d3a64e1b9546f6222dd951b8d4b760f1a4358439e939165eda8",
	"wanredundancy-design-1-leaf-spine-squall-parity-fec-seed2.ndjson 1776b18c47d3faa1050725de769e5df7723fda40280480031ea5dfcdb5b9fba1",
	"wanredundancy-design-1-leaf-spine-squall-duplicate-seed2.ndjson 4250708e0850b11d643bc5b307b3b893830fa81467471acbe58bcbc6e1ddbe50",
	"wanredundancy-design-1-leaf-spine-squall-adaptive-seed2.ndjson 3258ffaf91f1fe85e84601a06630835280fda12989df2c646799e1915afaf4cd",
	"wanredundancy-design-1-leaf-spine-drizzle-replay-only-seed2.ndjson 6f00d74b8901a1342a049aa8cf51eaae2f864672d448f04101c4f39232a8a6ad",
	"wanredundancy-design-1-leaf-spine-drizzle-parity-fec-seed2.ndjson ab9aaac6b11046fe8106690fc79e193c27b28d5835033a16d9e9ce59d50c9e5a",
	"wanredundancy-design-1-leaf-spine-drizzle-duplicate-seed2.ndjson d11d8d4d4f6b5df7c1651b58ad9b80839b8f52d2507e13f742875dc25fa91f84",
	"wanredundancy-design-1-leaf-spine-drizzle-adaptive-seed2.ndjson 0e1a60c6e597b6b797aa90b9cc605319735f11562820d17613f0e765e0020d41",
	"wanredundancy-design-2-cloud-squall-adaptive-seed2.ndjson 88b74ac8569198c732b6bb1a5c26cf122962a8a63ff5d78f7d9aa1ce95cdeab4",
	"wanredundancy-design-3-l1s-squall-adaptive-seed2.ndjson 7454a0f4eb123edb35484c373434f80c16171d81573319d09689704f23308869",
}

var exchangefailoverDigests = []string{
	"exchangefailover-design-1-leaf-spine-seed1.ndjson c0d643d04904800f225343ae36ee3aecbd62c40d1d2dcbdc43c523165335471c",
	"exchangefailover-design-2-cloud-seed1.ndjson a5861b7434dccc57a9c5ba5b111765ba91007b27db7c627f09c2ca04b74f60b8",
	"exchangefailover-design-3-l1s-seed1.ndjson e37f95f6090759d13da0f10e441a8ab6fb33d273470e104b6c390857a55a6d78",
	"exchangefailover-design-1-leaf-spine-seed2.ndjson 01700bbc61ad9f8ea003d1d694e825a1c60fdfb34a874693c7ef0cc3a67cb912",
	"exchangefailover-design-2-cloud-seed2.ndjson f76e0412043bfd0fb7b25c76ab050a50a9906bd802a19c218a501bf7b79fb14c",
	"exchangefailover-design-3-l1s-seed2.ndjson 0745c660ec3c3ce65f386a40cc8d1eaf6cc7fed9aafd51d3d42b168e58521ff7",
}
