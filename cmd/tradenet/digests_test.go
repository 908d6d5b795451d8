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
	"wanredundancy-design-1-leaf-spine-squall-replay-only-seed1.ndjson 165f6e91a9453daea0bac8fba7a1a8d2995522688fbe9695cfd2e164fa6c8e7a",
	"wanredundancy-design-1-leaf-spine-squall-parity-fec-seed1.ndjson 2f92d4c2e97677e8cf1c85e74d84729e206f1fa4740fc0a48565b00f1621381d",
	"wanredundancy-design-1-leaf-spine-squall-duplicate-seed1.ndjson 2a24bf66253dccda6b52d46f0b3749d794d81491ef62884d7976f1ba4374217a",
	"wanredundancy-design-1-leaf-spine-squall-adaptive-seed1.ndjson 542bdf1c2d816b9a36a472fc90a68d5947493c0ab3c8c712e3232a4ae4af477d",
	"wanredundancy-design-1-leaf-spine-drizzle-replay-only-seed1.ndjson 60b39a77740bcf2d53d1c9ca8fe8ed0822a0aea5fef4b24eacf7095e3c20b3bb",
	"wanredundancy-design-1-leaf-spine-drizzle-parity-fec-seed1.ndjson 1ebb236ee19f709e1991fc320f35bf6d7643a9aa8e72df76689ea797221eef0f",
	"wanredundancy-design-1-leaf-spine-drizzle-duplicate-seed1.ndjson d00789eca856065b07fdbc5c0a3debdb6f8129bcd9eaa6dcdf70a6c3b3cf2417",
	"wanredundancy-design-1-leaf-spine-drizzle-adaptive-seed1.ndjson 1d218c9cd988713cbce1290944cd3f4f458fa9324189da22868c7d50e2da9e10",
	"wanredundancy-design-2-cloud-squall-adaptive-seed1.ndjson bb83476792b1ac2db53abafb9c27bb66a10796cb332b5f08ac4014ec201e86da",
	"wanredundancy-design-3-l1s-squall-adaptive-seed1.ndjson 15c7eddd96690e72e843684b34c929fc611fd1b61dd626f4d458a236c735342d",
	"wanredundancy-design-1-leaf-spine-squall-replay-only-seed2.ndjson 8b26e327baaf59f88ceb65bf13d9ca78b7d00eb25980e44f84e16d2a10cbc3e7",
	"wanredundancy-design-1-leaf-spine-squall-parity-fec-seed2.ndjson b3b47003591316fa5f6663404377497ed8fea0745c96db0247b19447008bb781",
	"wanredundancy-design-1-leaf-spine-squall-duplicate-seed2.ndjson 1cbe18fbd6af976cf33039212e3a9109ec88fbd833d8f1bca97cdfe530dab71e",
	"wanredundancy-design-1-leaf-spine-squall-adaptive-seed2.ndjson 029beedbbd2f5c6104abe7fd65c8376c09d797481154aeb171581b158af0f6b0",
	"wanredundancy-design-1-leaf-spine-drizzle-replay-only-seed2.ndjson 8b6b258394d8d052b442d2118326ea633984d11b3fd877687fb70f8d209b510b",
	"wanredundancy-design-1-leaf-spine-drizzle-parity-fec-seed2.ndjson 8e35a13b5010a25be8a24aae33165053f1f51f0d3e60086ae0aca95045ac2c5d",
	"wanredundancy-design-1-leaf-spine-drizzle-duplicate-seed2.ndjson 6a287c03512ee8412a35e724cf5e61b5b8c5ed1edfc33f64c7730501f3fa98f4",
	"wanredundancy-design-1-leaf-spine-drizzle-adaptive-seed2.ndjson a8fca2b69c65573bed3f1f32845cadd7d241c285d43b1e6cb44f964005500619",
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
